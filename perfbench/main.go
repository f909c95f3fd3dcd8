// Command perfbench is the repository's end-to-end benchmark. It
// measures the simulator's host cost (wall-clock time and heap, never
// simulated time) of serving fixed, seeded request sets through the
// public stack, checks on every run that the simulated output is
// correct, and in a separate traced run splits host time by layer.
//
// Run it from the repository root through run.sh, which builds it from
// the checkout's sources first:
//
//	bash perfbench/run.sh --workload engine-swap --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
// per-layer metrics. README.md lists the workloads, what each metric
// means and which layer should move which metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed whose schedule digests are pinned
// (pinnedDigests); any other seed is checked for repeatability within
// its own run instead.
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds float64
	traced  bool
	// outDir receives the traced run's spans and CPU profile.
	outDir string
}

// report is what one workload run measured: request accounting, the
// metrics, and human-readable notes (sample counts, digests) printed
// before the result line.
type report struct {
	attempted, completed, failed int
	metrics                      map[string]metric
	notes                        []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runOpts) (*report, error){
	"engine-swap":    func(o runOpts) (*report, error) { return runBatch(engineSwap(engineSwapRequests), o) },
	"cluster-disagg": func(o runOpts) (*report, error) { return runBatch(clusterDisagg(clusterDisaggSeconds), o) },
	"gateway-sse":    func(o runOpts) (*report, error) { return runGateway(gatewaySpec(), o) },
}

func main() {
	name := flag.String("workload", "", "workload to run: engine-swap, cluster-disagg or gateway-sse")
	seed := flag.Uint64("seed", defaultSeed, "seed of the generated requests")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed end-to-end run")
	outDir := flag.String("out", ".bench_build", "directory for the traced run's spans and profile")
	flag.Parse()

	drive, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	start := time.Now()
	rep, err := drive(runOpts{seed: *seed, seconds: *seconds, traced: *traceOn == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := checkMetrics(rep, *traceOn == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("%s: attempted %d, completed %d, failed %d in %.1fs\n",
		*name, rep.attempted, rep.completed, rep.failed, time.Since(start).Seconds())
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkMetrics verifies that a report holds exactly the metrics its mode
// promises, with their units.
func checkMetrics(rep *report, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(rep.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(rep.metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s in %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	return nil
}
