package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the SLO burn-rate monitor: two SLIs (latency and errors)
// evaluated after every sample of its own window ring against multi-window
// multi-burn-rate rules (SRE-workbook style, scaled to LB timescales). The
// verdict surfaces three ways: as the slo.* gauges in the registry (so
// /metrics exports it), as the /slo admin JSON, and as the state string in
// /healthz.

// SLOState is the alert ladder: ok → warn → page.
type SLOState int

// SLO states, ordered by severity.
const (
	SLOOK SLOState = iota
	SLOWarn
	SLOPage
)

func (s SLOState) String() string {
	switch s {
	case SLOOK:
		return "ok"
	case SLOWarn:
		return "warn"
	case SLOPage:
		return "page"
	default:
		return "unknown"
	}
}

// BurnRule is one multi-window burn-rate alert rule: fire when the SLI
// burns its error budget at ≥ Burn× the sustainable rate over BOTH the
// short and the long window (the short window makes alerts reset quickly,
// the long one keeps them from flapping).
type BurnRule struct {
	Burn  float64
	Short time.Duration
	Long  time.Duration
}

// SLOConfig declares the objectives and the alert rules. Metric names bind
// the monitor to a concrete registry catalog (the proxy wires proxy.*).
type SLOConfig struct {
	// LatencyMetric is the request-latency histogram; the latency SLI is
	// the fraction of windowed observations ≤ LatencyThresholdNS, with
	// objective LatencyGoal (e.g. 0.99 = "99% of requests ≤ threshold").
	LatencyMetric      string
	LatencyThresholdNS int64
	LatencyGoal        float64

	// TotalMetrics (counters, summed) are the error SLI's event total;
	// BadMetrics are its failures. Objective ErrorGoal is the success
	// ratio (e.g. 0.999).
	TotalMetrics []string
	BadMetrics   []string
	ErrorGoal    float64

	// Page and Warn are the two alert rules.
	Page BurnRule
	Warn BurnRule
}

// DefaultSLOConfig returns LB-timescale objectives: p-latency 99% ≤ 250ms,
// 99.9% success, page at 10× burn over 10s+1m, warn at 2× over 1m+5m.
// Metric names are left to the embedder.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		LatencyThresholdNS: int64(250 * time.Millisecond),
		LatencyGoal:        0.99,
		ErrorGoal:          0.999,
		Page:               BurnRule{Burn: 10, Short: 10 * time.Second, Long: time.Minute},
		Warn:               BurnRule{Burn: 2, Short: time.Minute, Long: 5 * time.Minute},
	}
}

// Validate reports the first invalid field.
func (c SLOConfig) Validate() error {
	if c.LatencyMetric != "" {
		if c.LatencyThresholdNS <= 0 {
			return fmt.Errorf("telemetry: slo latency threshold must be positive, got %d", c.LatencyThresholdNS)
		}
		if !(c.LatencyGoal > 0 && c.LatencyGoal < 1) { // NaN fails too
			return fmt.Errorf("telemetry: slo latency goal %.4f outside (0,1)", c.LatencyGoal)
		}
	}
	if len(c.TotalMetrics) > 0 && !(c.ErrorGoal > 0 && c.ErrorGoal < 1) {
		return fmt.Errorf("telemetry: slo error goal %.4f outside (0,1)", c.ErrorGoal)
	}
	for _, r := range []struct {
		name string
		rule BurnRule
	}{{"page", c.Page}, {"warn", c.Warn}} {
		if !(r.rule.Burn > 0) || math.IsInf(r.rule.Burn, 1) { // NaN fails too
			return fmt.Errorf("telemetry: slo %s burn must be positive and finite, got %g", r.name, r.rule.Burn)
		}
		if r.rule.Short <= 0 || r.rule.Long < r.rule.Short {
			return fmt.Errorf("telemetry: slo %s windows want 0 < short ≤ long, got %v/%v",
				r.name, r.rule.Short, r.rule.Long)
		}
	}
	// A tick longer than the shortest window would read that window over the
	// whole tick, wider than asked.
	if tick, _ := c.sampling(); tick > min(c.Page.Short, c.Warn.Short) {
		return fmt.Errorf("telemetry: slo windows cannot be sampled at a %v tick: want the shortest ≥ 1ms and ≥ the longest ÷ 600", tick)
	}
	return nil
}

// ParseSLOSpec overlays a compact objective grammar on base:
//
//	spec    := clause (";" clause)*
//	clause  := "latency<=" DUR "@" PCT     latency objective (PCT of requests ≤ DUR)
//	         | "errors@" PCT               success-ratio objective
//	         | "page=" Nx "/" DUR "+" DUR  page rule: burn ≥ N over short+long
//	         | "warn=" Nx "/" DUR "+" DUR  warn rule
//
// e.g. "latency<=50ms@99%;errors@99.9%;page=10x/10s+1m;warn=2x/1m+5m".
// Metric bindings are untouched; clauses may appear in any order.
func ParseSLOSpec(spec string, base SLOConfig) (SLOConfig, error) {
	c := base
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		switch {
		case strings.HasPrefix(clause, "latency<="):
			rest := clause[len("latency<="):]
			durS, pctS, ok := strings.Cut(rest, "@")
			if !ok {
				return base, fmt.Errorf("telemetry: slo clause %q: want latency<=DUR@PCT", clause)
			}
			d, err := time.ParseDuration(durS)
			if err != nil || d <= 0 {
				return base, fmt.Errorf("telemetry: slo clause %q: bad duration %q", clause, durS)
			}
			goal, err := parsePercent(pctS)
			if err != nil {
				return base, fmt.Errorf("telemetry: slo clause %q: %v", clause, err)
			}
			c.LatencyThresholdNS, c.LatencyGoal = int64(d), goal
		case strings.HasPrefix(clause, "errors@"):
			goal, err := parsePercent(clause[len("errors@"):])
			if err != nil {
				return base, fmt.Errorf("telemetry: slo clause %q: %v", clause, err)
			}
			c.ErrorGoal = goal
		case strings.HasPrefix(clause, "page="), strings.HasPrefix(clause, "warn="):
			kind, rest, _ := strings.Cut(clause, "=")
			rule, err := parseBurnRule(rest)
			if err != nil {
				return base, fmt.Errorf("telemetry: slo clause %q: %v", clause, err)
			}
			if kind == "page" {
				c.Page = rule
			} else {
				c.Warn = rule
			}
		default:
			return base, fmt.Errorf("telemetry: slo clause %q: want latency<=…, errors@…, page=…, or warn=…", clause)
		}
	}
	if err := c.Validate(); err != nil {
		return base, err
	}
	return c, nil
}

// parsePercent reads "99.9%" (or "99.9") as 0.999.
func parsePercent(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil || !(v > 0 && v < 100) { // NaN fails too
		return 0, fmt.Errorf("bad percentage %q (want e.g. 99.9%%)", s)
	}
	return v / 100, nil
}

// parseBurnRule reads "10x/10s+1m".
func parseBurnRule(s string) (BurnRule, error) {
	burnS, winS, ok := strings.Cut(s, "/")
	if !ok {
		return BurnRule{}, fmt.Errorf("want Nx/SHORT+LONG, got %q", s)
	}
	burn, err := strconv.ParseFloat(strings.TrimSuffix(burnS, "x"), 64)
	if err != nil || !(burn > 0) || math.IsInf(burn, 1) {
		return BurnRule{}, fmt.Errorf("bad burn factor %q", burnS)
	}
	shortS, longS, ok := strings.Cut(winS, "+")
	if !ok {
		return BurnRule{}, fmt.Errorf("want SHORT+LONG windows, got %q", winS)
	}
	short, err := time.ParseDuration(shortS)
	if err != nil {
		return BurnRule{}, fmt.Errorf("bad short window %q", shortS)
	}
	long, err := time.ParseDuration(longS)
	if err != nil {
		return BurnRule{}, fmt.Errorf("bad long window %q", longS)
	}
	return BurnRule{Burn: burn, Short: short, Long: long}, nil
}

// SLIBurn is one SLI's burn rates across the four alert windows.
type SLIBurn struct {
	PageShort float64 `json:"page_short"`
	PageLong  float64 `json:"page_long"`
	WarnShort float64 `json:"warn_short"`
	WarnLong  float64 `json:"warn_long"`
}

// SLOStatus is the monitor's full externally visible state (the /slo body).
type SLOStatus struct {
	State       string `json:"state"`
	SinceUnixNS int64  `json:"since_unix_ns"`

	LatencyObjective string  `json:"latency_objective,omitempty"`
	ErrorObjective   string  `json:"error_objective,omitempty"`
	Latency          SLIBurn `json:"latency_burn"`
	Errors           SLIBurn `json:"errors_burn"`

	// Windowed latency over the page long window (null with no traffic).
	WindowP50MS *float64 `json:"window_p50_ms"`
	WindowP99MS *float64 `json:"window_p99_ms"`
	// Windowed request rate over the page long window.
	WindowReqPerSec float64 `json:"window_req_per_sec"`
}

// SLO samples a registry into a ring of snapshots and evaluates the
// objectives after every sample. Its verdict is also pushed into the
// registry as gauges — slo.state (0 ok / 1 warn / 2 page),
// slo.latency.burn_milli and slo.errors.burn_milli (page-short burn ×1000) —
// plus a slo.transitions counter.
type SLO struct {
	cfg  SLOConfig
	win  *windows
	tick time.Duration // Start's sampling period

	stateGauge  *Gauge
	latBurn     *Gauge
	errBurn     *Gauge
	transitions *Counter

	mu    sync.Mutex
	state SLOState
	last  SLOStatus
}

// minTick floors the derived sampling period, so windows of a few
// nanoseconds cannot ask the wall-clock sampler to spin.
const minTick = time.Millisecond

// sampling derives the monitor's ring from the rules' windows: a tick of
// max(shortest ÷ 10, longest ÷ 600, 1 ms), so the ring stays under ≈ 600
// samples, and ⌈longest ÷ tick⌉ + 2 samples (1 s and 302 for the defaults).
func (c SLOConfig) sampling() (tick time.Duration, depth int) {
	shortest := min(c.Page.Short, c.Warn.Short)
	longest := max(c.Page.Long, c.Warn.Long)
	tick = max(shortest/10, longest/600, minTick)
	depth = int(longest/tick) + 2
	if longest%tick != 0 {
		depth++
	}
	return tick, depth
}

// NewSLO validates cfg, registers the slo.* instruments on reg (nil: none),
// and sizes its ring from the rules' windows (sampling). Nothing samples
// until Tick or Run.
func NewSLO(cfg SLOConfig, reg *Registry) (*SLO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tick, depth := cfg.sampling()
	s := &SLO{cfg: cfg, win: newWindows(reg, depth), tick: tick}
	s.stateGauge = reg.Gauge(Metric{Name: "slo.state", Layer: "slo", Unit: "state",
		Help: "SLO burn-rate verdict: 0 ok, 1 warn, 2 page"})
	s.latBurn = reg.Gauge(Metric{Name: "slo.latency.burn_milli", Layer: "slo", Unit: "milli",
		Help: "latency SLI burn rate over the page short window, x1000"})
	s.errBurn = reg.Gauge(Metric{Name: "slo.errors.burn_milli", Layer: "slo", Unit: "milli",
		Help: "error SLI burn rate over the page short window, x1000"})
	s.transitions = reg.Counter(Metric{Name: "slo.transitions", Layer: "slo", Unit: "flips",
		Help: "SLO state transitions (any direction)"})
	s.last.State = SLOOK.String()
	s.last.LatencyObjective = cfg.latencyObjective()
	s.last.ErrorObjective = cfg.errorObjective()
	return s, nil
}

// Tick samples the registry at nowNS, then re-evaluates the verdict. This is
// the fake-clock entry point; Run drives it on the wall clock.
func (s *SLO) Tick(nowNS int64) {
	s.win.tick(nowNS)
	s.evaluate(nowNS)
}

// Run is the wall-clock sampler: one Tick per derived period until stop is
// closed.
func (s *SLO) Run(stop <-chan struct{}) {
	t := time.NewTicker(s.tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s.Tick(now.UnixNano())
		}
	}
}

func (c SLOConfig) latencyObjective() string {
	if c.LatencyMetric == "" {
		return ""
	}
	return fmt.Sprintf("%.4g%% of requests ≤ %s",
		c.LatencyGoal*100, time.Duration(c.LatencyThresholdNS))
}

func (c SLOConfig) errorObjective() string {
	if len(c.TotalMetrics) == 0 {
		return ""
	}
	return fmt.Sprintf("%.4g%% success", c.ErrorGoal*100)
}

// State returns the current verdict.
func (s *SLO) State() SLOState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Status returns the full externally visible state.
func (s *SLO) Status() SLOStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// latencyBurn computes the latency SLI's burn over one window: the bad
// fraction (observations above the threshold) divided by the error budget.
func (s *SLO) latencyBurn(d WindowDelta) float64 {
	if s.cfg.LatencyMetric == "" {
		return 0
	}
	good, ok := d.FractionAtMost(s.cfg.LatencyMetric, s.cfg.LatencyThresholdNS)
	if !ok {
		return 0 // no traffic in the window burns nothing
	}
	return (1 - good) / (1 - s.cfg.LatencyGoal)
}

// errorBurn computes the error SLI's burn over one window.
func (s *SLO) errorBurn(d WindowDelta) float64 {
	if len(s.cfg.TotalMetrics) == 0 {
		return 0
	}
	var total, bad int64
	for _, m := range s.cfg.TotalMetrics {
		total += d.Delta(m)
	}
	for _, m := range s.cfg.BadMetrics {
		bad += d.Delta(m)
	}
	if total <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - s.cfg.ErrorGoal)
}

// burns evaluates one SLI across the four alert windows.
func (s *SLO) burns(f func(WindowDelta) float64) SLIBurn {
	at := func(win time.Duration) float64 {
		d, ok := s.win.Window(win)
		if !ok {
			return 0
		}
		return f(d)
	}
	return SLIBurn{
		PageShort: at(s.cfg.Page.Short),
		PageLong:  at(s.cfg.Page.Long),
		WarnShort: at(s.cfg.Warn.Short),
		WarnLong:  at(s.cfg.Warn.Long),
	}
}

// fires reports whether a burn rule is violated: both of its windows must
// burn at or above the rule's factor.
func fires(rule BurnRule, short, long float64) bool {
	return short >= rule.Burn && long >= rule.Burn
}

// evaluate recomputes the verdict at nowNS, after Tick has sampled.
func (s *SLO) evaluate(nowNS int64) {
	lat := s.burns(s.latencyBurn)
	errs := s.burns(s.errorBurn)

	state := SLOOK
	switch {
	case fires(s.cfg.Page, lat.PageShort, lat.PageLong) || fires(s.cfg.Page, errs.PageShort, errs.PageLong):
		state = SLOPage
	case fires(s.cfg.Warn, lat.WarnShort, lat.WarnLong) || fires(s.cfg.Warn, errs.WarnShort, errs.WarnLong):
		state = SLOWarn
	}

	status := SLOStatus{
		State:            state.String(),
		LatencyObjective: s.cfg.latencyObjective(),
		ErrorObjective:   s.cfg.errorObjective(),
		Latency:          lat,
		Errors:           errs,
	}
	if d, ok := s.win.Window(s.cfg.Page.Long); ok {
		if s.cfg.LatencyMetric != "" {
			if p50, ok := d.Quantile(s.cfg.LatencyMetric, 0.50); ok {
				p99, _ := d.Quantile(s.cfg.LatencyMetric, 0.99)
				p50ms, p99ms := p50/1e6, p99/1e6
				status.WindowP50MS, status.WindowP99MS = &p50ms, &p99ms
			}
		}
		for _, m := range s.cfg.TotalMetrics {
			status.WindowReqPerSec += d.Rate(m)
		}
	}

	s.mu.Lock()
	if state != s.state {
		s.transitions.Inc()
		s.state = state
		s.last.SinceUnixNS = nowNS
	}
	status.SinceUnixNS = s.last.SinceUnixNS
	s.last = status
	s.mu.Unlock()

	s.stateGauge.Set(int64(state))
	s.latBurn.Set(int64(lat.PageShort * 1000))
	s.errBurn.Set(int64(errs.PageShort * 1000))
}
