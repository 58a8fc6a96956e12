package workload

import (
	"fmt"
	"time"
)

// Spec describes one traffic model in the open-loop form the paper uses for
// replay: connections arrive as a Poisson process at ConnRate; each carries
// a sampled number of requests at sampled intervals; each request carries a
// sampled CPU cost and sizes. The last request closes the connection.
type Spec struct {
	// Name labels the model in harness output.
	Name string
	// ConnRate is mean new connections per second (the paper's CPS axis).
	ConnRate float64
	// ReqPerConn samples the number of requests a connection carries (≥1).
	ReqPerConn Dist
	// FirstReqDelayNS samples ns between connection establishment and its
	// first request.
	FirstReqDelayNS Dist
	// InterReqNS samples ns between consecutive requests on a connection.
	InterReqNS Dist
	// CostNS samples per-request worker CPU time in ns (the paper's
	// processing-time axis).
	CostNS Dist
	// SizeBytes / RespBytes sample request/response sizes. Table 1 reads
	// them directly; a Generator only steps past the two draws
	// (Dist.Skip), because a simulated request carries no bytes.
	SizeBytes Dist
	RespBytes Dist
	// Ports are the tenant ports traffic targets; PortWeights skews tenant
	// shares (nil = uniform). §7: top tenants carry 40/28/22%.
	Ports       []uint16
	PortWeights []float64
}

// Scale returns the spec with connection rate multiplied by f — the paper's
// ×2 "medium" and ×3 "heavy" replay levels.
func (s Spec) Scale(f float64) Spec {
	s.ConnRate *= f
	s.Name = fmt.Sprintf("%s x%.3g", s.Name, f)
	return s
}

// OfferedRPS estimates the request rate this spec offers.
func (s Spec) OfferedRPS() float64 { return s.ConnRate * s.ReqPerConn.Mean() }

// Validate reports the first invalid field.
func (s Spec) Validate() error {
	if s.ConnRate <= 0 {
		return fmt.Errorf("workload: ConnRate must be positive")
	}
	if len(s.Ports) == 0 {
		return fmt.Errorf("workload: at least one port required")
	}
	if s.PortWeights != nil && len(s.PortWeights) != len(s.Ports) {
		return fmt.Errorf("workload: %d weights for %d ports", len(s.PortWeights), len(s.Ports))
	}
	for _, d := range []Dist{s.ReqPerConn, s.FirstReqDelayNS, s.InterReqNS, s.CostNS, s.SizeBytes, s.RespBytes} {
		if d == nil {
			return fmt.Errorf("workload: %s: all distributions must be set", s.Name)
		}
	}
	return nil
}

const (
	us = float64(time.Microsecond)
	ms = float64(time.Millisecond)
)

// The four case models of Table 3, parameterized for the paper's testbed
// shape (32-core LB). Rates are the "light" level; Scale(2)/Scale(3) give
// medium/heavy. Absolute numbers are calibrated to our cost model, not the
// paper's hardware; the CPS×cost quadrant each case occupies is what
// matters.

// Case1 is high CPS, low processing time: stress tests and traffic spikes
// (§6.2). One short request per connection, high connection rate.
func Case1(ports []uint16) Spec {
	return Spec{
		Name:            "case1-hiCPS-loPT",
		ConnRate:        160_000,
		ReqPerConn:      Const(1),
		FirstReqDelayNS: Exp{MeanVal: 50 * us},
		InterReqNS:      Const(0),
		CostNS:          Exp{MeanVal: 90 * us},
		SizeBytes:       Pareto{XMin: 200, Alpha: 2.5},
		RespBytes:       Pareto{XMin: 600, Alpha: 2.2},
		Ports:           ports,
	}
}

// Case2 is high CPS, high processing time: spike scenarios with expensive
// tasks (compression); a heavy tail hangs workers.
func Case2(ports []uint16) Spec {
	return Spec{
		Name:            "case2-hiCPS-hiPT",
		ConnRate:        28_000,
		ReqPerConn:      Const(1),
		FirstReqDelayNS: Exp{MeanVal: 50 * us},
		InterReqNS:      Const(0),
		// Mostly moderate work, a 3ms compression class, and a rare
		// >100ms class that hangs whole workers (the §5.2.1 pathology).
		CostNS: Mixture{
			Components: []Dist{Exp{MeanVal: 120 * us}, Exp{MeanVal: 3 * ms}, Exp{MeanVal: 120 * ms}},
			Weights:    []float64{0.969, 0.03, 0.001},
		},
		SizeBytes: Pareto{XMin: 800, Alpha: 1.8},
		RespBytes: Pareto{XMin: 2000, Alpha: 1.8},
		Ports:     ports,
	}
}

// Case3 is low CPS, low processing time: finance/chat long-lived
// connections carrying many cheap requests. Most production traffic
// (Table 4) looks like this.
func Case3(ports []uint16) Spec {
	return Spec{
		Name:            "case3-loCPS-loPT",
		ConnRate:        2_000,
		ReqPerConn:      Uniform{Lo: 64, Hi: 128},
		FirstReqDelayNS: Exp{MeanVal: 1 * ms},
		InterReqNS:      Exp{MeanVal: 5 * ms},
		CostNS:          Exp{MeanVal: 30 * us},
		SizeBytes:       Pareto{XMin: 150, Alpha: 2.8},
		RespBytes:       Pareto{XMin: 300, Alpha: 2.5},
		Ports:           ports,
	}
}

// Case4 is low CPS, high processing time: web services with TLS handshakes
// and regex routing; expensive established connections cannot migrate.
func Case4(ports []uint16) Spec {
	return Spec{
		Name:            "case4-loCPS-hiPT",
		ConnRate:        1_000,
		ReqPerConn:      Uniform{Lo: 32, Hi: 48},
		FirstReqDelayNS: Exp{MeanVal: 2 * ms},
		InterReqNS:      Exp{MeanVal: 20 * ms},
		CostNS:          LogNormal{Mu: 12.3, Sigma: 1.1}, // mean ≈ 400µs, long tail
		SizeBytes:       Pareto{XMin: 700, Alpha: 2.2},
		RespBytes:       Pareto{XMin: 4000, Alpha: 1.9},
		Ports:           ports,
	}
}

// WebSocket is the Region3 special (§2.3): one huge, long request per
// connection — small share of requests, enormous P99 size and time.
func WebSocket(ports []uint16) Spec {
	return Spec{
		Name:            "websocket",
		ConnRate:        50,
		ReqPerConn:      Const(1),
		FirstReqDelayNS: Exp{MeanVal: 5 * ms},
		InterReqNS:      Const(0),
		CostNS:          LogNormal{Mu: 18.5, Sigma: 1.5}, // median ≈ 108ms, P99 ≈ seconds
		SizeBytes:       Pareto{XMin: 20_000, Alpha: 1.6},
		RespBytes:       Pareto{XMin: 20_000, Alpha: 1.6},
		Ports:           ports,
	}
}

// Cases returns the four Table 3 models in order.
func Cases(ports []uint16) []Spec {
	return []Spec{Case1(ports), Case2(ports), Case3(ports), Case4(ports)}
}
