package main

// measure.go: the host-side meters every workload shares — CPU, allocations,
// peak memory, order statistics — and the host fingerprint.

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter reads process CPU (user+sys) and heap allocation counts.
type meter struct {
	t       time.Time
	cpuS    float64
	mallocs uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t: time.Now(), cpuS: cpuSeconds(), mallocs: ms.Mallocs}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// cpuJiffies reads the host-wide CPU counters of /proc/stat: time stolen by
// the hypervisor and total time. ok is false where they cannot be read.
func cpuJiffies() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// quantile returns the p-quantile (0..1) of vals by linear interpolation.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	vals = append([]float64(nil), vals...)
	sort.Float64s(vals)
	pos := p * float64(len(vals)-1)
	lo := int(pos)
	if lo >= len(vals)-1 {
		return vals[len(vals)-1]
	}
	return vals[lo] + (pos-float64(lo))*(vals[lo+1]-vals[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// spread is the interquartile range as a share of the median, the same
// statistic the benchmark's bounds are judged against.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 || len(vals) < 2 {
		return 0
	}
	return (quantile(vals, 0.75) - quantile(vals, 0.25)) / math.Abs(m)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// cv is stddev/mean, the imbalance statistic of the paper's Fig. 13.
func cv(vals []float64) float64 {
	m := mean(vals)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, v := range vals {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss/float64(len(vals))) / m
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// ratio is a/b, 0 when b is 0: a per-layer share of something that did not
// happen on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// xorshift is the benchmark's own seeded generator (xorshift64), so that its
// inputs do not depend on any library's stream.
type xorshift uint64

func newXorshift(seed int64, salt uint64) xorshift { return xorshift(uint64(seed)*salt | 1) }

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// host is the fingerprint stored with every result.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
	// Busy flags a 1-minute load average above nproc/2 at start: the numbers
	// are kept, but a reader should distrust them.
	Busy bool `json:"busy_at_start"`
}

func fingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					h.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	h.Busy = h.Load1 > float64(h.NProc)/2
	return h
}
