package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Policy is the JSON shape of the control interface the paper's scheduler
// exposes (Appendix C: "our scheduler exposes an HTTP interface that allows
// dynamic policy updates, supports fallbacks to reuseport, and facilitates
// rapid iteration of future scheduling algorithms"). It is Config, field for
// field, in milliseconds and order names.
type Policy struct {
	ThetaFrac       float64 `json:"theta_frac"`
	HangThresholdMS float64 `json:"hang_threshold_ms"`
	MinWorkers      int     `json:"min_workers"`
	EpollTimeoutMS  float64 `json:"epoll_timeout_ms"`
	FilterOrder     string  `json:"filter_order"`
	ForceFallback   bool    `json:"force_fallback"`
}

// orderNames are the filter_order values, indexed by FilterOrder.
var orderNames = [...]string{
	OrderTimeConnEvent: "time-conn-event",
	OrderTimeEventConn: "time-event-conn",
	OrderTimeOnly:      "time-only",
	OrderSingleWinner:  "single-winner",
}

func parseOrder(s string) (FilterOrder, error) {
	if s == "" {
		return OrderTimeConnEvent, nil
	}
	for o, name := range orderNames {
		if s == name {
			return FilterOrder(o), nil
		}
	}
	return 0, fmt.Errorf("core: unknown filter order %q", s)
}

// PolicyOf snapshots the controller's live policy.
func PolicyOf(c *Controller) Policy {
	cfg := c.Config()
	return Policy{
		ThetaFrac:       cfg.ThetaFrac,
		HangThresholdMS: float64(cfg.HangThreshold) / 1e6,
		MinWorkers:      cfg.MinWorkers,
		EpollTimeoutMS:  float64(cfg.EpollTimeout) / 1e6,
		FilterOrder:     orderNames[cfg.Order],
		ForceFallback:   cfg.ForceFallback,
	}
}

// ApplyPolicy installs p onto the controller as one SetConfig: live
// schedulers pick it up whole on their next pass.
func ApplyPolicy(c *Controller, p Policy) error {
	order, err := parseOrder(p.FilterOrder)
	if err != nil {
		return err
	}
	return c.SetConfig(Config{
		HangThreshold: time.Duration(p.HangThresholdMS * 1e6),
		ThetaFrac:     p.ThetaFrac,
		MinWorkers:    p.MinWorkers,
		EpollTimeout:  time.Duration(p.EpollTimeoutMS * 1e6),
		Order:         order,
		ForceFallback: p.ForceFallback,
	})
}

// PolicyHandler serves the control interface for one controller:
//
//	GET  /policy  → current policy JSON
//	PUT  /policy  ← policy JSON (unknown keys refused; validated; atomic swap)
//	GET  /status  → scheduling statistics, every group's selection word and
//	                availability veto mask (group order) and live worker
//	                metrics (global id order)
//
// Mount it on any mux; it performs no authentication (production would sit
// behind the control-plane's).
func PolicyHandler(c *Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/policy", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, PolicyOf(c))
		case http.MethodPut:
			var p Policy
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&p); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
			if err := ApplyPolicy(c, p); err != nil {
				writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, PolicyOf(c))
		default:
			w.Header().Set("Allow", "GET, PUT")
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use GET or PUT"})
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use GET"})
			return
		}
		type workerStatus struct {
			Worker      int   `json:"worker"`
			LoopEnterNS int64 `json:"loop_enter_ns"`
			Busy        int64 `json:"busy"`
			Conn        int64 `json:"conn"`
		}
		snap := c.Snapshot(nil)
		ws := make([]workerStatus, len(snap))
		for i, m := range snap {
			ws[i] = workerStatus{Worker: i, LoopEnterNS: m.LoopEnterNS, Busy: m.Busy, Conn: m.Conn}
		}
		sel, avail := make([]string, c.Groups()), make([]string, c.Groups())
		for gi := range sel {
			sel[gi] = fmt.Sprintf("%064b", c.Selection(gi))
			avail[gi] = fmt.Sprintf("%064b", c.AvailableMask(gi))
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"stats":          c.Stats(),
			"selection":      sel,
			"available_mask": avail,
			"workers":        ws,
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
