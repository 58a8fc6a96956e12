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
	Status string `json:"status"`
	// Policy is the backend-selection policy in force.
	Policy    string `json:"policy"`
	Backends  int    `json:"backends"`
	Available int    `json:"available"`
	Workers   int    `json:"workers"`
	UptimeSec int64  `json:"uptime_sec"`
	// SLO is the burn-rate verdict ("ok", "warn", "page"); empty when the
	// monitor is disabled. Reported alongside pool availability so one
	// healthz poll covers both liveness and objective health.
	SLO string `json:"slo,omitempty"`
}

// BackendView is one pool member in the /backends response.
type BackendView struct {
	Index    int    `json:"index"`
	Address  string `json:"address"`
	Weight   int    `json:"weight"`
	Healthy  bool   `json:"healthy"`
	Active   int64  `json:"active"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Dials is upstream connections opened; Requests − Dials were served on
	// reused ones.
	Dials uint64 `json:"dials"`

	LastProbeUnixNS  int64 `json:"last_probe_unix_ns,omitempty"`
	LastProbeOK      bool  `json:"last_probe_ok"`
	LastChangeUnixNS int64 `json:"last_change_unix_ns,omitempty"`

	Circuit *CircuitView `json:"circuit,omitempty"`
}

// healthzView builds the /healthz body and its HTTP status.
func (p *Proxy) healthzView() (HealthzView, int) {
	avail := p.pool.AvailableCount()
	v := HealthzView{
		Policy:    p.cfg.Policy,
		Backends:  len(p.pool.backends),
		Available: avail,
		Workers:   len(p.workers),
		UptimeSec: int64(time.Since(time.Unix(0, p.startNS)).Seconds()),
	}
	if p.slo != nil {
		v.SLO = p.slo.State().String()
	}
	code := http.StatusOK
	switch {
	case p.draining.Load():
		v.Status, code = "draining", http.StatusServiceUnavailable
	case avail == 0:
		v.Status, code = "unavailable", http.StatusServiceUnavailable
	case avail < v.Backends:
		v.Status = "degraded"
	default:
		v.Status = "ok"
	}
	return v, code
}

// backendViews builds the /backends body: each backend's own state beside
// its slots of the proxy.backend.* rows.
func (p *Proxy) backendViews() []BackendView {
	out := make([]BackendView, 0, len(p.pool.backends))
	for _, b := range p.pool.backends {
		v := BackendView{
			Index:    b.idx,
			Address:  b.addr,
			Weight:   b.weight,
			Healthy:  b.Healthy(),
			Active:   b.active.Load(),
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
			Dials:    b.dials.Load(),

			LastProbeUnixNS:  b.lastProbeNS.Load(),
			LastProbeOK:      b.lastProbeOK.Load(),
			LastChangeUnixNS: b.lastChangeNS.Load(),
		}
		if b.circuit != nil {
			cv := b.circuit.Snapshot()
			v.Circuit = &cv
		}
		out = append(out, v)
	}
	return out
}

// AdminHandler serves the proxy's admin REST API:
//
//	GET /healthz   liveness + pool availability + SLO state (503 when nothing pickable)
//	GET /backends  per-backend health, counters, circuit state
//	GET /stats     the telemetry registry's snapshot (the JSON of a hermes-bench -metrics cell)
//	GET /metrics   the same snapshot as an OpenMetrics exposition
//	GET /slo       burn-rate monitor status (404 when disabled)
//	GET,PUT /policy, GET /status  the Hermes policy API (core.PolicyHandler)
//
// Every number is a registry row: /stats and /metrics are its two encodings,
// and the counts /backends shows are read from the same slots. The other
// endpoints carry what a counter cannot (verdicts, breaker positions,
// bitmaps). Responses are uncacheable point-in-time reads: every
// endpoint sets Cache-Control: no-store.
func AdminHandler(p *Proxy) http.Handler {
	mux := http.NewServeMux()
	header := func(w http.ResponseWriter, contentType string, status int) {
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(status)
	}
	serve := func(w http.ResponseWriter, status int, body any) {
		header(w, "application/json", status)
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
		header(w, "application/json", http.StatusOK)
		_ = p.reg.Snapshot().WriteJSON(w)
	}))
	mux.Handle("/metrics", get(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := telemetry.WriteOpenMetrics(&buf, p.reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		header(w, telemetry.PromContentType, http.StatusOK)
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
