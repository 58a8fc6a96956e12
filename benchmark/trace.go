package main

// trace.go holds the traced run's two instruments: a span recorder the
// drivers call around each step into a layer, and a fold of a CPU profile
// into one share per layer. Both live in the benchmark; the program is not
// touched.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed step. Times are nanoseconds since the recorder started;
// Parent is the span that caused it (0: none); spans of one op share Op.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the drivers call it unconditionally.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint32
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// reserve hands out a span id before the span ends, so children can name it.
func (r *recorder) reserve() uint32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id
}

func (r *recorder) put(id uint32, name string, parent uint32, op uint64, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// durationsUS returns every recorded duration of the named span, in µs.
func (r *recorder) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- CPU-profile fold ---

// foldLayers are the shares the fold reports; they sum to 1.
var foldLayers = []string{"sim", "shm", "core", "ebpf", "kernel", "l7lb", "workload", "stats",
	"httpx", "proxy", "telemetry", "loadgen", "runtime"}

// layerOf maps a Go function name to a layer, or "" when the frame belongs to
// none (standard library, runtime, helper packages): the fold then charges
// the sample to the nearest caller that does.
func layerOf(fn string) string {
	const internal = "hermes/internal/"
	switch {
	case strings.HasPrefix(fn, "main."):
		return "loadgen"
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "sim", "shm", "core", "ebpf", "kernel", "l7lb", "workload", "stats", "httpx", "proxy", "telemetry":
			return pkg
		case "tracing", "openmetrics":
			return "telemetry"
		case "bench": // bench.Run is sim-table3's driver
			return "loadgen"
		}
	}
	return ""
}

// profileCPU runs fn under the CPU profiler and returns each layer's share of
// the samples. A sample belongs to the innermost frame that is in a layer, so
// allocation, copying and syscalls are charged to the layer that asked for
// them; samples with no such frame (GC workers, scheduler, netpoll) are
// "runtime", and the benchmark's own clients, stubs and drivers are "loadgen".
func profileCPU(fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	return foldProfile(raw)
}

// foldProfile decodes the few fields of a pprof profile.proto the fold needs:
// samples (location ids, values), locations (lines → function ids),
// functions (name index) and the string table.
func foldProfile(raw []byte) (map[string]float64, error) {
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err := pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendVarints(s.locs, v, b)
				case 2:
					vals = pbAppendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.val = int64(vals[len(vals)-1]) // last value type: cpu nanoseconds
				samples = append(samples, s)
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fnLayer := make(map[uint64]string, len(fnName))
	for id, si := range fnName {
		if si < uint64(len(strs)) {
			fnLayer[id] = layerOf(strs[si])
		}
	}
	shares := make(map[string]float64, len(foldLayers))
	var total float64
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs { // leaf first
			for _, fn := range locFns[loc] {
				if l := fnLayer[fn]; l != "" {
					layer = l
					break walk
				}
			}
		}
		shares[layer] += float64(s.val)
		total += float64(s.val)
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return fmt.Errorf("profile: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return fmt.Errorf("profile: truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: truncated bytes field")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppendVarints appends a repeated integer field, packed (bytes) or not.
func pbAppendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
