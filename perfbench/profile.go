package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// profiler takes CPU profiles of the traced serving windows and
// accumulates their samples by layer.
type profiler struct {
	buf     bytes.Buffer
	windows int
	attr    attribution
	raw     [][]byte
}

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	data := append([]byte(nil), p.buf.Bytes()...)
	prof, err := parseProfile(data)
	if err != nil {
		return err
	}
	p.attr.add(attribute(prof))
	p.raw = append(p.raw, data)
	p.windows++
	return nil
}

// layerFracs are the per-layer profile metrics: (metric, layer, self or
// cumulative).
var layerFracs = []struct {
	metric, layer string
	cum           bool
}{
	{"serving.self_frac", "serving", false},
	{"kvcache.self_frac", "kvcache", false},
	{"kvcache.cum_frac", "kvcache", true},
	{"offload.cum_frac", "offload", true},
	{"cluster.self_frac", "cluster", false},
	{"disagg.self_frac", "disagg", false},
	{"gpusim.self_frac", "gpusim", false},
	{"httpapi.self_frac", "httpapi", false},
	{"net.self_frac", "net", false},
	{"loop.self_frac", "loop", false},
	{"trace.self_frac", "trace", false},
	{"telemetry.self_frac", "telemetry", false},
	{"runtime.self_frac", "runtime", false},
}

// report sets the profile-derived layer shares.
func (p *profiler) report(rep *report) {
	for _, f := range layerFracs {
		rep.set(f.metric, p.attr.frac(f.layer, f.cum), "frac")
	}
	rep.notef("cpu profile: %d samples over %d windows", p.attr.total, p.windows)
}

// write stores the raw profiles under dir, one file per window.
func (p *profiler) write(dir, name string, seed uint64) error {
	for i, data := range p.raw {
		path := filepath.Join(dir, fmt.Sprintf("cpu-%s-seed%d-%d.pprof", name, seed, i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("write profile: %w", err)
		}
	}
	return nil
}

// layerOf names the layer a function belongs to: the repository
// package under internal/ it is declared in, with the serving Loop's
// methods counted apart from the engine as "loop"; every net package is
// "net", the Go runtime "runtime", and the benchmark itself "bench".
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "diffkv/internal/serving.(*Loop).") {
		return "loop"
	}
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "diffkv/internal/"):
		rest := strings.TrimPrefix(pkg, "diffkv/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/"):
		return "runtime"
	case pkg == "main":
		return "bench"
	}
	return pkg
}

// packageOf returns the import path of a symbol name as the Go runtime
// prints it ("diffkv/internal/kvcache.(*Manager).GenCompact").
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attribution counts profile samples by layer: self by the layer of the
// leaf frame, cumulative by every layer present anywhere in the stack.
type attribution struct {
	total     int64
	self, cum map[string]int64
}

func (a *attribution) add(b attribution) {
	if a.self == nil {
		a.self, a.cum = map[string]int64{}, map[string]int64{}
	}
	a.total += b.total
	for k, v := range b.self {
		a.self[k] += v
	}
	for k, v := range b.cum {
		a.cum[k] += v
	}
}

func (a *attribution) frac(layer string, cum bool) float64 {
	if a.total == 0 {
		return 0
	}
	if cum {
		return float64(a.cum[layer]) / float64(a.total)
	}
	return float64(a.self[layer]) / float64(a.total)
}

// attribute splits a profile's samples (its first value, the sample
// count) by layer. Inlined frames count as frames of their own.
func attribute(p *profile) attribution {
	a := attribution{self: map[string]int64{}, cum: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.value) == 0 {
			continue
		}
		n := s.value[0]
		a.total += n
		seen := map[string]bool{}
		for i, locID := range s.locations {
			for j, fnID := range p.locations[locID] {
				l := layerOf(p.functions[fnID])
				if i == 0 && j == 0 {
					a.self[l] += n
				}
				if !seen[l] {
					seen[l] = true
					a.cum[l] += n
				}
			}
		}
	}
	return a
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples []sample
	// locations maps a location ID to its function IDs, innermost
	// (inlined) first.
	locations map[uint64][]uint64
	// functions maps a function ID to its name.
	functions map[uint64]string
}

type sample struct {
	locations []uint64 // leaf first
	value     []int64
}

// parseProfile decodes a gzipped pprof protocol buffer
// (github.com/google/pprof/proto/profile.proto) with the standard
// library: samples, locations with their lines, functions and the
// string table.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	fnName := map[uint64]int64{}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.value = append(s.value, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, s := range fnName {
		if s < 0 || int(s) >= len(strs) {
			return nil, errors.New("profile: function name out of the string table")
		}
		p.functions[id] = strs[s]
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks the fields of one protocol buffer message, passing
// varints in v and length-delimited payloads in b. Fixed-width fields
// are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
