package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// pbuf encodes the protocol buffer fields a pprof profile uses.
type pbuf struct{ b []byte }

func (p *pbuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	p.bytes(field, in)
}

func (p *pbuf) fixed64(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|1)
	p.b = binary.LittleEndian.AppendUint64(p.b, v)
}

// syntheticProfile builds a gzipped profile: GenCompact inlined into
// Engine.Step under Loop.run, an allocation under it, a net/http leaf
// and a benchmark leaf; 11 samples in all.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	names := []string{"",
		"diffkv/internal/kvcache.(*Manager).GenCompact",
		"diffkv/internal/serving.(*Engine).Step",
		"diffkv/internal/serving.(*Loop).run",
		"net/http.(*conn).serve",
		"runtime.mallocgc",
		"main.main",
	}
	var p pbuf
	sampleType := pbuf{}
	sampleType.varint(1, 1)
	sampleType.varint(2, 2)
	p.bytes(1, sampleType.b)
	sample := func(value uint64, locs ...uint64) {
		var s pbuf
		s.packed(1, locs...)
		s.packed(2, value, value*10_000_000)
		p.bytes(2, s.b)
	}
	sample(3, 1, 2)
	sample(5, 4, 1, 2)
	sample(2, 3)
	var unpacked pbuf // location IDs as repeated, unpacked varints
	unpacked.varint(1, 5)
	unpacked.varint(2, 1)
	p.bytes(2, unpacked.b)
	location := func(id uint64, fns ...uint64) {
		var l pbuf
		l.varint(1, id)
		l.varint(3, 0x1000*id)
		for _, fn := range fns {
			var line pbuf
			line.varint(1, fn)
			line.varint(2, 42)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	location(1, 1, 2) // GenCompact inlined into Step
	location(2, 3)
	location(3, 4)
	location(4, 5)
	location(5, 6)
	for id := 1; id < len(names); id++ {
		var f pbuf
		f.varint(1, uint64(id))
		f.varint(2, uint64(id))
		p.bytes(5, f.b)
	}
	for _, n := range names {
		p.bytes(6, []byte(n))
	}
	p.fixed64(9, 123) // a field the parser must skip
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileAttributionSumsToOne(t *testing.T) {
	prof, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(prof)
	if a.total != 11 {
		t.Fatalf("total %d samples, want 11", a.total)
	}
	sum := 0.0
	for layer := range a.self {
		sum += a.frac(layer, false)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("self fractions sum to %v, want 1", sum)
	}
	for _, c := range []struct {
		layer string
		cum   bool
		want  float64
	}{
		{"kvcache", false, 3.0 / 11},
		{"runtime", false, 5.0 / 11},
		{"net", false, 2.0 / 11},
		{"bench", false, 1.0 / 11},
		{"serving", false, 0},
		{"kvcache", true, 8.0 / 11},
		{"serving", true, 8.0 / 11},
		{"loop", true, 8.0 / 11},
		{"httpapi", true, 0},
	} {
		if got := a.frac(c.layer, c.cum); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s (cum %v) = %v, want %v", c.layer, c.cum, got, c.want)
		}
	}
	if _, err := parseProfile(syntheticProfile(t)[:40]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"diffkv/internal/serving.(*Loop).step":           "loop",
		"diffkv/internal/serving.(*Engine).genStep":      "serving",
		"diffkv/internal/kvcache.(*FreeList).AllocBatch": "kvcache",
		"diffkv/internal/httpapi.(*Gateway).completeSSE": "httpapi",
		"net/http.(*persistConn).readLoop":               "net",
		"net.(*conn).Read":                               "net",
		"runtime.gcBgMarkWorker":                         "runtime",
		"main.serveEngine":                               "bench",
		"encoding/json.Marshal":                          "encoding/json",
		"diffkv.Scenario.Build":                          "diffkv",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestDigestCoversTimestamps(t *testing.T) {
	recs := []schedRec{
		{ID: 1, Inst: 2, FirstTokenUs: 100, DoneUs: 5000, Preemptions: 1, Attempts: 1},
		{ID: 2, Inst: 9, FirstTokenUs: 150, DoneUs: 7000, Attempts: 1},
	}
	base := digest(recs, 40)
	if again := digest(append([]schedRec(nil), recs...), 40); again != base {
		t.Fatalf("digest not deterministic: %s vs %s", base, again)
	}
	changed := append([]schedRec(nil), recs...)
	changed[1].DoneUs += 0.5
	if digest(changed, 40) == base {
		t.Error("changing one completion timestamp kept the digest")
	}
	changed = append([]schedRec(nil), recs...)
	changed[0].FirstTokenUs++
	if digest(changed, 40) == base {
		t.Error("changing one first-token timestamp kept the digest")
	}
	if digest(recs, 41) == base {
		t.Error("changing the step count kept the digest")
	}
}

const goodStream = "data: {\"id\":\"cmpl-1\",\"choices\":[{\"index\":0,\"text\":\"\",\"finish_reason\":null}],\"diffkv\":{\"first_token\":true}}\n\n" +
	"data: {\"id\":\"cmpl-1\",\"choices\":[{\"index\":0,\"text\":\" the\",\"finish_reason\":null}]}\n\n" +
	"data: {\"id\":\"cmpl-1\",\"choices\":[{\"index\":0,\"text\":\"\",\"finish_reason\":\"stop\"}],\"usage\":{\"prompt_tokens\":9,\"completion_tokens\":3,\"total_tokens\":12}}\n\n" +
	"data: [DONE]\n\n"

func TestReadSSE(t *testing.T) {
	if _, err := readSSE(strings.NewReader(goodStream), 3, time.Now()); err != nil {
		t.Fatalf("complete stream: %v", err)
	}
	done := strings.Index(goodStream, "data: [DONE]")
	final := strings.LastIndex(goodStream[:done], "data: ")
	for name, body := range map[string]string{
		"truncated before [DONE]":      goodStream[:done],
		"truncated in the final chunk": goodStream[:final+30],
		"truncated after first chunk":  goodStream[:strings.Index(goodStream, "\n\n")+2],
		"empty":                        "",
	} {
		if _, err := readSSE(strings.NewReader(body), 3, time.Now()); err == nil {
			t.Errorf("%s: counted as a success", name)
		}
	}
	if _, err := readSSE(strings.NewReader(goodStream), 4, time.Now()); err == nil {
		t.Error("a stream with too few completion tokens counted as a success")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricsMatchBenchmarkJSON checks every metric name and that the
// code reports exactly the workloads and metrics BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []metricDef, file []struct{ Name, Unit string }) {
		if len(code) != len(file) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(file))
		}
		for i, m := range code {
			if !metricName.MatchString(m.name) || len(m.name) > 64 {
				t.Errorf("%s: bad metric name %q", kind, m.name)
			}
			if m.name != file[i].Name || m.unit != file[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	for _, f := range layerFracs {
		if !metricName.MatchString(f.metric) {
			t.Errorf("bad metric name %q", f.metric)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestTinyBatchRunsReproduce runs a tiny size of each batch workload
// twice in one process, once traced, and requires the same schedule.
func TestTinyBatchRunsReproduce(t *testing.T) {
	for _, w := range []*batchWorkload{engineSwap(2), clusterDisagg(5)} {
		first, err := w.iterate(7, nil, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if first.completed != first.attempted || first.attempted == 0 {
			t.Fatalf("%s: completed %d of %d", w.name, first.completed, first.attempted)
		}
		tr := &tracing{spans: newSpanLog(), prof: &profiler{}}
		second, err := w.iterate(7, tr, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if first.digest != second.digest {
			t.Errorf("%s: digest %s, then %s traced", w.name, first.digest, second.digest)
		}
		other, err := w.iterate(8, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if other.digest == first.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

// TestRunReports runs a batch workload briefly in both modes
// and checks it reports exactly the promised metrics.
func TestRunReports(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep, err := runBatch(engineSwap(2), runOpts{seed: 3, seconds: 0.01, traced: traced, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMetrics(rep, traced); err != nil {
			t.Errorf("traced %v: %v", traced, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("traced %v: %d of %d failed", traced, rep.failed, rep.attempted)
		}
	}
}

// TestTinyGatewayRun serves a few hundred milliseconds of streaming
// completions, untraced and traced, and requires every one to pass;
// then makes a short run of each kind and checks what it reports.
func TestTinyGatewayRun(t *testing.T) {
	w := gatewaySpec()
	for _, traced := range []bool{false, true} {
		rep, err := runGateway(w, runOpts{seed: 5, seconds: 0.5, traced: traced, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkMetrics(rep, traced); err != nil {
			t.Errorf("traced %v: %v", traced, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("traced %v: %d of %d failed", traced, rep.failed, rep.attempted)
		}
	}
	for _, traced := range []bool{false, true} {
		var tr *gatewayTracing
		if traced {
			tr = &gatewayTracing{spans: newSpanLog(), prof: &profiler{}}
			tr.on.Store(true)
		}
		g, _, err := w.start(5, 100, tr)
		if err != nil {
			t.Fatal(err)
		}
		pool := newClientPool(gatewayClients)
		win := pool.run(g, 200*time.Millisecond, tr)
		pool.close()
		if err := g.stop(); err != nil {
			t.Fatal(err)
		}
		if win.attempted == 0 || win.failed != 0 {
			t.Fatalf("traced %v: %d of %d failed: %v", traced, win.failed, win.attempted, win.failures)
		}
		if traced && len(tr.spans.durations("httpapi.handler")) == 0 {
			t.Error("traced run recorded no handler spans")
		}
	}
}

// TestPinnedDigests serves one full-size iteration of each batch
// workload at the default seed and compares it with the pinned digest.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs")
	}
	for _, w := range []*batchWorkload{engineSwap(engineSwapRequests), clusterDisagg(clusterDisaggSeconds)} {
		it, err := w.iterate(defaultSeed, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if want := pinnedDigests[w.name]; it.digest != want {
			t.Errorf("%s: digest %s, pinned %s", w.name, it.digest, want)
		}
	}
}
