package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one (possibly inlined) function in a sample's call stack.
type frame struct {
	fn   string // fully qualified, e.g. pasched/internal/fleet.(*Fleet).place
	file string
}

// cpuSample is one profile sample: its CPU time and its stack, innermost
// frame first.
type cpuSample struct {
	nanos  int64
	frames []frame
}

// parseCPUProfile decodes a gzipped runtime/pprof CPU profile (the
// profile.proto wire format) into samples with symbolized stacks.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawFunc struct{ name, file int64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	err = pbFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return pbUints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f rawFunc
			err := pbFields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: s.values[1]}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				cs.frames = append(cs.frames, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func pbFields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated varint field in either packed or unpacked
// encoding (runtime/pprof writes both).
func pbUints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// Profile layers. Each sample lands in exactly one; see attribute.
var profileLayers = []string{
	"fleet.coordinator", "fleet.place", "fleet.source", "fleet.sink", "fleet.shard",
	"host", "sched", "serve", "obs.record", "obs.drain", "obs.export", "autoscale",
	"harness", "other", "runtime",
}

const (
	modulePrefix = "pasched/"
	// harnessPrefix names this package when built as a test binary
	// (it is package main, with main.* symbols, when built as a command).
	harnessPrefix = "pasched/fleetbench."
	placeFrame    = "pasched/internal/fleet.(*Fleet).place"
)

// attribute returns the layer one sample's CPU time belongs to. Time
// under Fleet.place is counted cumulatively as placement (the policy's
// power estimate calls into cpufreq and core). Otherwise the innermost
// frame from this module decides: standard-library leaves belong to
// their caller (sort.Slice under Recorder.Drain, fmt under the Perfetto
// writer), as do the shared sim and metrics helpers. A sample with no
// module frame is runtime work (GC workers, scheduler).
func attribute(frames []frame) string {
	for _, f := range frames {
		if f.fn == placeFrame {
			return "fleet.place"
		}
	}
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "runtime"
}

// frameLayer maps one frame to its layer, or "" when the frame passes
// its time up to the caller.
func frameLayer(f frame) string {
	if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, harnessPrefix) {
		return "harness"
	}
	if !strings.HasPrefix(f.fn, modulePrefix) {
		return ""
	}
	pkg := f.fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	}
	switch strings.TrimPrefix(pkg, modulePrefix+"internal/") {
	case "sim", "metrics":
		return ""
	case "host", "engine", "vm", "workload", "energy", "cpufreq", "consolidation":
		return "host"
	case "sched", "core", "governor", "multicore":
		return "sched"
	case "serve":
		return "serve"
	case "autoscale":
		return "autoscale"
	case "obs":
		switch {
		case strings.HasPrefix(f.fn, "pasched/internal/obs.(*Recorder).Drain"):
			return "obs.drain"
		case path.Base(f.file) == "perfetto.go":
			return "obs.export"
		default:
			return "obs.record"
		}
	case "fleet":
		switch path.Base(f.file) {
		case "shard.go":
			return "fleet.shard"
		case "report.go":
			return "fleet.sink"
		case "generate.go", "source.go", "trace.go":
			return "fleet.source"
		case "placeindex.go", "policy.go":
			return "fleet.place"
		case "autoscale.go":
			return "autoscale"
		default:
			return "fleet.coordinator"
		}
	}
	return "other"
}

// layerCPU buckets a profile's CPU seconds by layer.
func layerCPU(samples []cpuSample) map[string]float64 {
	out := make(map[string]float64, len(profileLayers))
	for _, s := range samples {
		out[attribute(s.frames)] += float64(s.nanos) / 1e9
	}
	return out
}
