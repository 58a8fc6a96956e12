package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"time"

	"hermes/internal/core"
	"hermes/internal/telemetry"
)

// HealthzView is the /healthz response body.
type HealthzView struct {
	// Status is "ok" (every backend available), "degraded" (some down),
	// "unavailable" (none pickable, served as 503), or "draining".
	Status    string `json:"status"`
	Backends  int    `json:"backends"`
	Available int    `json:"available"`
	Workers   int    `json:"workers"`
	UptimeSec int64  `json:"uptime_sec"`
	// SLO is the burn-rate verdict ("ok", "warn", "page"); empty when the
	// monitor is disabled. Reported alongside pool availability so one
	// healthz poll covers both liveness and objective health.
	SLO string `json:"slo,omitempty"`
}

// CircuitView is one breaker in /circuits and /backends responses.
type CircuitView struct {
	State     string  `json:"state"`
	Fails     int     `json:"consecutive_fails"`
	Opens     uint64  `json:"opens"`
	HalfOpens uint64  `json:"half_opens"`
	Closes    uint64  `json:"closes"`
	OpenForMS float64 `json:"open_for_ms,omitempty"`
}

// BackendView is one pool member in the /backends response.
type BackendView struct {
	Index    int    `json:"index"`
	Address  string `json:"address"`
	Weight   int    `json:"weight"`
	Healthy  bool   `json:"healthy"`
	Reason   string `json:"down_reason,omitempty"`
	Active   int64  `json:"active"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`

	LastProbeUnixNS  int64 `json:"last_probe_unix_ns,omitempty"`
	LastProbeOK      bool  `json:"last_probe_ok"`
	LastChangeUnixNS int64 `json:"last_change_unix_ns,omitempty"`

	Circuit *CircuitView `json:"circuit,omitempty"`
}

// StatsView is the /stats response body.
type StatsView struct {
	UptimeSec   float64 `json:"uptime_sec"`
	Policy      string  `json:"policy"`
	Workers     int     `json:"workers"`
	Served      uint64  `json:"served"`
	Errors      uint64  `json:"errors"`
	Unavailable uint64  `json:"unavailable"`

	LatencyP50MS *float64 `json:"latency_p50_ms"`
	LatencyP99MS *float64 `json:"latency_p99_ms"`

	RetryAttempts  uint64 `json:"retry_attempts"`
	RetryRecovered uint64 `json:"retry_recovered"`
	RetryExhausted uint64 `json:"retry_exhausted"`

	CircuitRejections uint64 `json:"circuit_rejections"`
	HealthProbes      uint64 `json:"health_probes"`
	HealthTransitions uint64 `json:"health_transitions"`

	WorkerHandled []uint64 `json:"worker_handled"`

	// Scheduler is the Hermes control-loop view: Algorithm-1 pass counts and
	// the live selection/availability bitmaps backend health feeds into.
	Scheduler SchedulerView `json:"scheduler"`
}

// SchedulerView surfaces the Hermes controller state in /stats.
type SchedulerView struct {
	ScheduleCalls   uint64  `json:"schedule_calls"`
	Syncs           uint64  `json:"syncs"`
	Batched         uint64  `json:"batched"`
	AvgPassed       float64 `json:"avg_passed"`
	EmptySets       uint64  `json:"empty_sets"`
	SelectionBitmap uint64  `json:"selection_bitmap"`
	AvailableMask   uint64  `json:"available_mask"`
}

// healthzView builds the /healthz body and its HTTP status.
func (p *Proxy) healthzView() (HealthzView, int) {
	avail := p.pool.AvailableCount()
	v := HealthzView{
		Backends:  len(p.pool.backends),
		Available: avail,
		Workers:   len(p.workers),
		UptimeSec: int64(time.Since(time.Unix(0, p.startNS)).Seconds()),
	}
	if p.slo != nil {
		v.SLO = p.slo.State().String()
	}
	switch {
	case p.draining.Load():
		return withStatus(v, "draining"), http.StatusServiceUnavailable
	case avail == 0:
		return withStatus(v, "unavailable"), http.StatusServiceUnavailable
	case avail < v.Backends:
		return withStatus(v, "degraded"), http.StatusOK
	default:
		return withStatus(v, "ok"), http.StatusOK
	}
}

func withStatus(v HealthzView, s string) HealthzView {
	v.Status = s
	return v
}

// backendViews builds the /backends body.
func (p *Proxy) backendViews() []BackendView {
	out := make([]BackendView, 0, len(p.pool.backends))
	for _, b := range p.pool.backends {
		v := BackendView{
			Index:    b.idx,
			Address:  b.addr,
			Weight:   b.weight,
			Healthy:  b.healthy.Load(),
			Active:   b.active.Load(),
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),

			LastProbeUnixNS:  b.lastProbeNS.Load(),
			LastProbeOK:      b.lastProbeOK.Load(),
			LastChangeUnixNS: b.lastChangeNS.Load(),
		}
		if r, _ := b.downReason.Load().(string); r != "" && !v.Healthy {
			v.Reason = r
		}
		if b.circuit != nil {
			cv := circuitView(b.circuit.Snapshot())
			v.Circuit = &cv
		}
		out = append(out, v)
	}
	return out
}

func circuitView(s CircuitSnapshot) CircuitView {
	return CircuitView{
		State:     s.State.String(),
		Fails:     s.Fails,
		Opens:     s.Opens,
		HalfOpens: s.HalfOpens,
		Closes:    s.Closes,
		OpenForMS: float64(s.OpenForNS) / 1e6,
	}
}

// statsView builds the /stats body.
func (p *Proxy) statsView() StatsView {
	v := StatsView{
		UptimeSec:   time.Since(time.Unix(0, p.startNS)).Seconds(),
		Policy:      p.cfg.Policy,
		Workers:     len(p.workers),
		Served:      p.Served.Load(),
		Errors:      p.tel.UpstreamErrors.Load(),
		Unavailable: p.tel.Unavailable.Load(),

		RetryAttempts:  p.tel.RetryAttempts.Load(),
		RetryRecovered: p.tel.RetryRecovered.Load(),
		RetryExhausted: p.tel.RetryExhausted.Load(),

		CircuitRejections: p.tel.CircuitRejections.Load(),
		HealthProbes:      p.tel.HealthProbes.Load(),
		HealthTransitions: p.tel.HealthTransitions.Load(),
	}
	if ms := p.reg.Snapshot().Get("proxy.request_latency_ns"); ms != nil && ms.Count > 0 {
		p50 := ms.Quantile(0.50) / 1e6
		p99 := ms.Quantile(0.99) / 1e6
		v.LatencyP50MS, v.LatencyP99MS = &p50, &p99
	}
	for _, w := range p.workers {
		v.WorkerHandled = append(v.WorkerHandled, w.handled.Load())
	}
	st := p.ctl.Stats()
	bitmap, _ := p.ctl.SelMap().Lookup(0)
	v.Scheduler = SchedulerView{
		ScheduleCalls:   st.ScheduleCalls,
		Syncs:           st.Syncs,
		Batched:         st.Batched,
		AvgPassed:       st.AvgPassed,
		EmptySets:       st.EmptySets,
		SelectionBitmap: bitmap,
		AvailableMask:   p.ctl.AvailableMask(),
	}
	return v
}

// circuitViews builds the /circuits body, keyed by backend address.
func (p *Proxy) circuitViews() map[string]CircuitView {
	out := make(map[string]CircuitView, len(p.pool.backends))
	for _, b := range p.pool.backends {
		if b.circuit == nil {
			continue
		}
		out[b.addr] = circuitView(b.circuit.Snapshot())
	}
	return out
}

// AdminHandler serves the proxy's admin REST API:
//
//	GET /healthz   liveness + pool availability + SLO state (503 when nothing pickable)
//	GET /backends  per-backend health, counters, circuit state
//	GET /stats     request/retry/latency counters + Hermes scheduler state
//	GET /circuits  per-backend breaker snapshots
//	GET /metrics   OpenMetrics exposition of the full telemetry catalog
//	GET /slo       burn-rate monitor status (404 when disabled)
//	GET,PUT /policy, GET /status  the Hermes policy API (core.PolicyHandler)
//
// JSON responses are uncacheable point-in-time reads: every endpoint sets
// Cache-Control: no-store.
func AdminHandler(p *Proxy) http.Handler {
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, status int, body any) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	}
	get := func(h func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			h(w, r)
		}
	}
	mux.Handle("/healthz", get(func(w http.ResponseWriter, r *http.Request) {
		v, status := p.healthzView()
		serve(w, status, v)
	}))
	mux.Handle("/backends", get(func(w http.ResponseWriter, r *http.Request) {
		serve(w, http.StatusOK, p.backendViews())
	}))
	mux.Handle("/stats", get(func(w http.ResponseWriter, r *http.Request) {
		serve(w, http.StatusOK, p.statsView())
	}))
	mux.Handle("/circuits", get(func(w http.ResponseWriter, r *http.Request) {
		serve(w, http.StatusOK, p.circuitViews())
	}))
	mux.Handle("/metrics", get(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := telemetry.WriteOpenMetrics(&buf, p.reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", telemetry.PromContentType)
		w.Header().Set("Cache-Control", "no-store")
		_, _ = w.Write(buf.Bytes())
	}))
	mux.Handle("/slo", get(func(w http.ResponseWriter, r *http.Request) {
		if p.slo == nil {
			http.Error(w, "slo monitoring disabled", http.StatusNotFound)
			return
		}
		serve(w, http.StatusOK, p.slo.Status())
	}))
	// The Hermes policy/status API keeps its existing shape and paths.
	mux.Handle("/policy", core.PolicyHandler(p.ctl))
	mux.Handle("/status", core.PolicyHandler(p.ctl))
	return mux
}
