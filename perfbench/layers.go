package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
)

// layerNames are the buckets CPU samples are attributed to. A sample
// belongs to the innermost stack frame that lies in a layer, so a
// layer's time includes the runtime and standard-library helpers it
// calls (allocation, math) but not the layers it calls.
var layerNames = []string{
	"medium",    // radio medium, path loss, LoRa PHY tables
	"mac",       // BLA/LoRaWAN decisions, Algorithm 1, utility
	"energy",    // battery, rainflow, solar and forecaster, the node energy kernel
	"engine",    // event engine, scheduling, node logic, observability
	"netserver", // gateway-side degradation tracking and w_u
	"lns",       // LNS daemon: routing, queues, barriers, replay apply
	"codec",     // JSON encode/decode
	"transport", // HTTP and sockets
	"runtime",   // stacks with no program frame: GC workers, scheduler
	"other",     // everything else, the benchmark itself included
}

// layerOf classifies one frame by function name and file, or returns ""
// when the frame is a helper that belongs to its caller's layer.
func layerOf(fn, file string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "repro/internal/sim":
		switch path.Base(file) {
		case "medium.go":
			return "medium"
		case "core.go":
			return "energy"
		}
		return "engine"
	case "repro/internal/radio", "repro/internal/lora":
		return "medium"
	case "repro/internal/mac", "repro/internal/core", "repro/internal/utility":
		return "mac"
	case "repro/internal/energy", "repro/internal/battery":
		return "energy"
	case "repro/internal/netserver":
		return "netserver"
	case "repro/internal/lns":
		return "lns"
	case "encoding/json":
		return "codec"
	case "net/http", "net", "internal/poll", "net/http/httptest", "net/textproto", "bufio":
		return "transport"
	case "main":
		return "other"
	}
	if strings.HasPrefix(pkg, "repro/internal/") {
		return "engine"
	}
	return ""
}

// harnessLabel marks CPU samples of the benchmark's own work.
const harnessLabel = "perfbench"

// harness runs f, the benchmark's own work (input generation, reference
// checks), under a profiler label so per-layer CPU time excludes it.
func harness(f func()) {
	pprof.Do(context.Background(), pprof.Labels(harnessLabel, "harness"), func(context.Context) { f() })
}

// cpuProfile is an in-memory CPU profile of the measured window.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and returns CPU nanoseconds per layer.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range prof.samples {
		if !prof.harness(s) {
			out[prof.classify(s.locs)] += float64(s.nanos)
		}
	}
	return out, nil
}

// The subset of the pprof protobuf (profile.proto) attribution needs.
type (
	profSample struct {
		locs      []uint64
		nanos     int64
		labelKeys []int64
	}
	profLine struct{ fn uint64 }
	profFunc struct{ name, file int64 }
	profile  struct {
		samples []profSample
		locs    map[uint64][]profLine
		funcs   map[uint64]profFunc
		strs    []string
	}
)

// classify walks a sample's stack from the leaf outwards, inlined
// frames first, and returns the first layer it finds.
func (p *profile) classify(locs []uint64) string {
	program := false
	for _, id := range locs {
		for _, ln := range p.locs[id] {
			f := p.funcs[ln.fn]
			name, file := p.str(f.name), p.str(f.file)
			if l := layerOf(name, file); l != "" {
				return l
			}
			if !strings.HasPrefix(name, "runtime.") {
				program = true
			}
		}
	}
	if program {
		return "other"
	}
	return "runtime"
}

func (p *profile) harness(s profSample) bool {
	for _, k := range s.labelKeys {
		if p.str(k) == harnessLabel {
			return true
		}
	}
	return false
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile parses the fields of a CPU profile that attribution
// uses: samples (location ids, CPU nanoseconds, label keys), locations
// (inlined line chains), functions (name, file) and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]profLine{}, funcs: map[uint64]profFunc{}}
	// A CPU profile's sample types are [samples/count, cpu/nanoseconds];
	// the last value of each sample is its CPU time.
	types := 0
	err := forFields(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case 1: // sample_type
			types++
		case 2: // sample
			var s profSample
			var values []uint64
			err := forFields(sub, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, packed)
				case 2:
					return appendVarints(&values, v, packed)
				case 3: // label
					return forFields(packed, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							s.labelKeys = append(s.labelKeys, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if types == 0 || len(values) != types {
				return fmt.Errorf("sample has %d values for %d types", len(values), types)
			}
			s.nanos = int64(values[types-1])
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var lines []profLine
			err := forFields(sub, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var l profLine
					err := forFields(line, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			p.locs[id] = lines
			return err
		case 5: // function
			var id uint64
			var fn profFunc
			err := forFields(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = fn
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// forFields calls fn for each top-level field of a protobuf message:
// varints pass their value, length-delimited fields their bytes.
func forFields(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field occurrence: a single
// value, or a packed run when packed is non-nil.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
