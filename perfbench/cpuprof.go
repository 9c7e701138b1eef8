package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the layers a CPU profile is folded into, each
// reported as <pkg>.cpu_frac. Samples whose stack holds no cawa/internal
// frame count for runtime when the leaf is in the Go runtime (GC,
// scheduler, idle) and for other otherwise; cawa packages outside this
// list (isa, stats, obs, checkpoint, ...) also count for other.
var cpuPackages = []string{
	"sm", "simt", "memsys", "cache", "sched", "core", "gpu",
	"serve", "harness", "workloads", "memory", "runtime", "other",
}

// cpuFold accumulates CPU-profile weight per layer.
type cpuFold struct {
	weight map[string]int64
	total  int64
}

func newCPUFold() *cpuFold { return &cpuFold{weight: make(map[string]int64)} }

// fracs returns each layer's share of all sampled CPU time.
func (f *cpuFold) fracs() map[string]float64 {
	out := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		if f.total > 0 {
			out[p] = float64(f.weight[p]) / float64(f.total)
		} else {
			out[p] = 0
		}
	}
	return out
}

// layerOf attributes one sample's stack (leaf first) to a layer: the
// innermost cawa/internal package on the stack, so that runtime helpers
// a package calls (map lookups, allocation, JSON encoding under serve)
// count for that package.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "cawa/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		for _, p := range cpuPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	if len(stack) > 0 && (strings.HasPrefix(stack[0], "runtime.") || strings.HasPrefix(stack[0], "internal/runtime/") ||
		strings.HasPrefix(stack[0], "runtime/")) {
		return "runtime"
	}
	return "other"
}

// add folds one gzipped pprof CPU profile (runtime/pprof output) into f.
func (f *cpuFold) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		w := s.values[len(s.values)-1] // cpu nanoseconds
		var stack []string
		for _, lid := range s.locations {
			for _, fid := range p.locations[lid] {
				if ix, ok := p.functions[fid]; ok && ix >= 0 && int(ix) < len(p.strings) {
					stack = append(stack, p.strings[ix])
				}
			}
		}
		f.weight[layerOf(stack)] += w
		f.total += w
	}
	return nil
}

// profile is the subset of the pprof protobuf the fold needs.
type profile struct {
	samples []sample
	// locations maps a location id to its function ids, innermost
	// (inlined callee) first.
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]int64
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes the pprof Profile message: sample = 2,
// location = 4, function = 5, string_table = 6.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := fields(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return varints(wire, v, data, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
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
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number, wire type, and either its scalar value (varint and fixed
// types) or its bytes (length-delimited).
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated integer field, packed or not.
func varints(wire int, v uint64, data []byte, yield func(uint64)) error {
	if wire != 2 {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		yield(x)
		data = data[n:]
	}
	return nil
}
