// Package proxy is the production-grade real-socket reverse proxy behind
// cmd/hermes-lb: an HTTP/1.1 edge whose worker scheduling runs the Hermes
// control loop (workers publish to the Worker Status Table, every worker runs
// Algorithm 1, the acceptor picks workers from the live selection bitmap) and
// whose backend pool adds the classic L7 edge features — active and passive
// health checks, circuit breaking with half-open probing, weighted and
// least-connection policies, and bounded retry/buffering — so backend
// availability and worker-load steering become one userspace decision
// (docs/PROXY.md).
package proxy

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"hermes/internal/telemetry"
)

// Policy names accepted by Config.Policy.
const (
	PolicyRoundRobin = "round-robin"
	PolicyWeighted   = "weighted"
	PolicyLeastConn  = "least-connections"
)

// BackendConfig declares one upstream server.
type BackendConfig struct {
	// Address is the TCP host:port to dial.
	Address string
	// Weight biases the weighted policy (≥1; 0 means 1).
	Weight int
}

// HealthCheckConfig tunes active and passive backend health checks.
type HealthCheckConfig struct {
	// Enabled turns active probing on.
	Enabled bool
	// Path is the probe request target (must start with "/").
	Path string
	// Interval is the probe period per backend.
	Interval time.Duration
	// Timeout bounds one probe (dial + response).
	Timeout time.Duration
	// HealthyThreshold is the consecutive probe successes required to mark
	// an unhealthy backend healthy again.
	HealthyThreshold int
	// UnhealthyThreshold is the consecutive probe failures required to mark
	// a healthy backend unhealthy.
	UnhealthyThreshold int
	// PassiveThreshold marks a backend unhealthy after this many consecutive
	// upstream errors observed while proxying (0 disables passive checks).
	// Passive marks recover through active probing when Enabled, else after
	// the first successful proxied request.
	PassiveThreshold int
}

// CircuitBreakerConfig tunes per-backend circuit breaking.
type CircuitBreakerConfig struct {
	// Enabled turns circuit breaking on.
	Enabled bool
	// FailureThreshold opens the circuit after this many consecutive
	// request failures.
	FailureThreshold int
	// SuccessThreshold closes a half-open circuit after this many
	// consecutive trial successes.
	SuccessThreshold int
	// Timeout is how long an open circuit rejects before going half-open.
	Timeout time.Duration
}

// TelemetrySettings tunes the windowed time-series sampler behind /metrics,
// /slo, and -stats-every (docs/TELEMETRY.md).
type TelemetrySettings struct {
	// WindowTick is the sampling period for windowed rates and quantiles.
	WindowTick time.Duration
	// WindowDepth is how many ticks of history the ring retains; the longest
	// answerable window is WindowTick × (WindowDepth-1).
	WindowDepth int
}

// SLOSettings arms the burn-rate monitor over the windowed layer.
type SLOSettings struct {
	// Enabled turns SLO evaluation on (state surfaces in /healthz and /slo).
	Enabled bool
	// Objectives overrides the default objectives using the spec grammar
	// "latency<=250ms@99%;errors@99.9%;page=10x/10s+1m;warn=2x/1m+5m"
	// (telemetry.ParseSLOSpec); "" keeps the defaults.
	Objectives string
}

// BufferConfig bounds request buffering and retries.
type BufferConfig struct {
	// MaxRequestBody caps the buffered request body in bytes; larger
	// requests are refused with 413.
	MaxRequestBody int
	// Retries is how many additional backends an idempotent request may be
	// retried against after an upstream failure (0 disables retry).
	Retries int
}

// Config is the proxy's full configuration. Zero value is not runnable; use
// DefaultConfig then overlay a file (LoadFile) and flags.
type Config struct {
	// Listen is the client-facing address.
	Listen string
	// AdminListen serves the admin REST API ("" disables).
	AdminListen string
	// Workers is the proxy worker count (1..64 — one Hermes group).
	Workers int
	// Policy picks the backend selection policy.
	Policy string
	// Backends is the upstream pool (at least one).
	Backends []BackendConfig

	HealthCheck    HealthCheckConfig
	CircuitBreaker CircuitBreakerConfig
	Buffer         BufferConfig
	Telemetry      TelemetrySettings
	SLO            SLOSettings

	// DialTimeout bounds one upstream dial.
	DialTimeout time.Duration
	// ResponseTimeout bounds one upstream response read.
	ResponseTimeout time.Duration
	// ClientIdleTimeout bounds waiting for the next request on a keep-alive
	// client connection.
	ClientIdleTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: how long Shutdown waits for
	// in-flight requests before force-closing connections.
	DrainTimeout time.Duration
}

// DefaultConfig returns production-like defaults: health checks and circuit
// breaking on, weighted policy, modest retry budget.
func DefaultConfig() Config {
	return Config{
		Listen:  "127.0.0.1:8080",
		Workers: 4,
		Policy:  PolicyRoundRobin,
		HealthCheck: HealthCheckConfig{
			Enabled:            true,
			Path:               "/health",
			Interval:           2 * time.Second,
			Timeout:            500 * time.Millisecond,
			HealthyThreshold:   2,
			UnhealthyThreshold: 3,
			PassiveThreshold:   3,
		},
		CircuitBreaker: CircuitBreakerConfig{
			Enabled:          true,
			FailureThreshold: 5,
			SuccessThreshold: 2,
			Timeout:          10 * time.Second,
		},
		Buffer: BufferConfig{
			MaxRequestBody: 10 << 20,
			Retries:        2,
		},
		Telemetry: TelemetrySettings{
			WindowTick:  time.Second,
			WindowDepth: 360,
		},
		SLO:               SLOSettings{Enabled: true},
		DialTimeout:       2 * time.Second,
		ResponseTimeout:   5 * time.Second,
		ClientIdleTimeout: 5 * time.Second,
		DrainTimeout:      10 * time.Second,
	}
}

// MaxWorkers is the single-group worker cap (one 64-bit selection bitmap).
const MaxWorkers = 64

// Validate reports the first invalid field as a one-line error. It is the
// single validation path for both file- and flag-sourced configuration.
func (c Config) Validate() error {
	if c.Listen == "" {
		return fmt.Errorf("proxy: listen address required")
	}
	if c.Workers < 1 || c.Workers > MaxWorkers {
		return fmt.Errorf("proxy: workers %d outside 1..%d (one Hermes selection bitmap)", c.Workers, MaxWorkers)
	}
	switch c.Policy {
	case PolicyRoundRobin, PolicyWeighted, PolicyLeastConn:
	default:
		return fmt.Errorf("proxy: unknown policy %q (want %s, %s, or %s)",
			c.Policy, PolicyRoundRobin, PolicyWeighted, PolicyLeastConn)
	}
	if len(c.Backends) == 0 {
		return fmt.Errorf("proxy: at least one backend required")
	}
	if len(c.Backends) > 64 {
		return fmt.Errorf("proxy: %d backends exceed the 64-backend retry bitmask", len(c.Backends))
	}
	seen := make(map[string]bool, len(c.Backends))
	for i, b := range c.Backends {
		host, port, err := net.SplitHostPort(b.Address)
		if err != nil || host == "" || port == "" {
			return fmt.Errorf("proxy: backend %d: malformed address %q (want host:port)", i, b.Address)
		}
		if n, err := strconv.Atoi(port); err != nil || n < 1 || n > 65535 {
			return fmt.Errorf("proxy: backend %d: bad port in %q", i, b.Address)
		}
		if seen[b.Address] {
			return fmt.Errorf("proxy: duplicate backend address %q", b.Address)
		}
		seen[b.Address] = true
		if b.Weight < 0 {
			return fmt.Errorf("proxy: backend %d: negative weight %d", i, b.Weight)
		}
	}
	h := c.HealthCheck
	if h.Enabled {
		if !strings.HasPrefix(h.Path, "/") {
			return fmt.Errorf("proxy: health_check path %q must start with /", h.Path)
		}
		if h.Interval <= 0 {
			return fmt.Errorf("proxy: health_check interval must be positive, got %v", h.Interval)
		}
		if h.Timeout <= 0 {
			return fmt.Errorf("proxy: health_check timeout must be positive, got %v", h.Timeout)
		}
		if h.HealthyThreshold < 1 || h.UnhealthyThreshold < 1 {
			return fmt.Errorf("proxy: health_check thresholds must be ≥ 1, got healthy=%d unhealthy=%d",
				h.HealthyThreshold, h.UnhealthyThreshold)
		}
	}
	if h.PassiveThreshold < 0 {
		return fmt.Errorf("proxy: health_check passive_threshold must be ≥ 0, got %d", h.PassiveThreshold)
	}
	cb := c.CircuitBreaker
	if cb.Enabled {
		if cb.FailureThreshold < 1 || cb.SuccessThreshold < 1 {
			return fmt.Errorf("proxy: circuit_breaker thresholds must be ≥ 1, got failure=%d success=%d",
				cb.FailureThreshold, cb.SuccessThreshold)
		}
		if cb.Timeout <= 0 {
			return fmt.Errorf("proxy: circuit_breaker timeout must be positive, got %v", cb.Timeout)
		}
	}
	if c.Buffer.MaxRequestBody < 0 {
		return fmt.Errorf("proxy: buffer max_request_body must be ≥ 0, got %d", c.Buffer.MaxRequestBody)
	}
	if c.Buffer.Retries < 0 || c.Buffer.Retries > 16 {
		return fmt.Errorf("proxy: buffer retries %d outside 0..16", c.Buffer.Retries)
	}
	if c.DialTimeout <= 0 || c.ResponseTimeout <= 0 || c.ClientIdleTimeout <= 0 {
		return fmt.Errorf("proxy: dial/response/idle timeouts must be positive")
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("proxy: drain timeout must be ≥ 0, got %v", c.DrainTimeout)
	}
	if err := c.windowConfig().Validate(); err != nil {
		return fmt.Errorf("proxy: telemetry: %w", err)
	}
	if c.SLO.Enabled {
		if _, err := c.sloConfig(); err != nil {
			return fmt.Errorf("proxy: slo: %w", err)
		}
	}
	return nil
}

// windowConfig maps the telemetry settings onto the sampler config.
func (c Config) windowConfig() telemetry.WindowConfig {
	return telemetry.WindowConfig{Tick: c.Telemetry.WindowTick, Depth: c.Telemetry.WindowDepth}
}

// sloConfig resolves the SLO objectives against the proxy.* catalog: totals
// come from the per-worker served counter (incremented for every proxied
// request, including 502/503 outcomes), bad events from upstream errors and
// no-backend 503s, and the latency SLI from the end-to-end histogram.
func (c Config) sloConfig() (telemetry.SLOConfig, error) {
	base := telemetry.DefaultSLOConfig()
	base.LatencyMetric = "proxy.request_latency_ns"
	base.TotalMetrics = []string{"proxy.worker.requests_served"}
	base.BadMetrics = []string{"proxy.upstream_errors", "proxy.unavailable"}
	return telemetry.ParseSLOSpec(c.SLO.Objectives, base)
}

// ParseBackends parses a comma-separated backend list ("addr" or
// "addr*weight" items) — the -backends flag syntax.
func ParseBackends(s string) ([]BackendConfig, error) {
	var out []BackendConfig
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("proxy: empty backend entry in %q", s)
		}
		b := BackendConfig{Address: item, Weight: 1}
		if i := strings.IndexByte(item, '*'); i >= 0 {
			w, err := strconv.Atoi(item[i+1:])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("proxy: bad weight in backend entry %q", item)
			}
			b.Address, b.Weight = item[:i], w
		}
		out = append(out, b)
	}
	return out, nil
}

// LoadFile reads a config.yaml (the SNIPPETS exemplar shape, see
// docs/PROXY.md) and overlays it on base. Unknown keys are errors.
func LoadFile(path string, base Config) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	return loadYAML(data, base)
}

func loadYAML(data []byte, base Config) (Config, error) {
	root, err := parseYAML(data)
	if err != nil {
		return base, err
	}
	c := base
	d := &decoder{}

	if m := d.section(root, "server"); m != nil {
		d.str(m, "listen", &c.Listen)
		d.str(m, "admin_listen", &c.AdminListen)
		d.integer(m, "workers", &c.Workers)
		d.duration(m, "drain_timeout", &c.DrainTimeout)
		d.duration(m, "dial_timeout", &c.DialTimeout)
		d.duration(m, "response_timeout", &c.ResponseTimeout)
		d.duration(m, "client_idle_timeout", &c.ClientIdleTimeout)
		d.noExtra("server", m)
	}
	if raw, ok := root["backends"]; ok {
		delete(root, "backends")
		items, ok := raw.([]any)
		if !ok {
			d.errf("backends: want a list")
		} else {
			c.Backends = nil
			for i, it := range items {
				m, ok := it.(map[string]any)
				if !ok {
					d.errf("backends[%d]: want a mapping with address/weight", i)
					continue
				}
				b := BackendConfig{Weight: 1}
				d.str(m, "address", &b.Address)
				d.integer(m, "weight", &b.Weight)
				d.noExtra(fmt.Sprintf("backends[%d]", i), m)
				c.Backends = append(c.Backends, b)
			}
		}
	}
	if m := d.section(root, "load_balancing"); m != nil {
		d.str(m, "algorithm", &c.Policy)
		d.noExtra("load_balancing", m)
	}
	if m := d.section(root, "health_check"); m != nil {
		d.boolean(m, "enabled", &c.HealthCheck.Enabled)
		d.str(m, "path", &c.HealthCheck.Path)
		d.duration(m, "interval", &c.HealthCheck.Interval)
		d.duration(m, "timeout", &c.HealthCheck.Timeout)
		d.integer(m, "healthy_threshold", &c.HealthCheck.HealthyThreshold)
		d.integer(m, "unhealthy_threshold", &c.HealthCheck.UnhealthyThreshold)
		d.integer(m, "passive_threshold", &c.HealthCheck.PassiveThreshold)
		d.noExtra("health_check", m)
	}
	if m := d.section(root, "circuit_breaker"); m != nil {
		d.boolean(m, "enabled", &c.CircuitBreaker.Enabled)
		d.integer(m, "failure_threshold", &c.CircuitBreaker.FailureThreshold)
		d.integer(m, "success_threshold", &c.CircuitBreaker.SuccessThreshold)
		d.duration(m, "timeout", &c.CircuitBreaker.Timeout)
		d.noExtra("circuit_breaker", m)
	}
	if m := d.section(root, "buffer"); m != nil {
		d.integer(m, "max_request_body", &c.Buffer.MaxRequestBody)
		d.integer(m, "retries", &c.Buffer.Retries)
		d.noExtra("buffer", m)
	}
	if m := d.section(root, "telemetry"); m != nil {
		d.duration(m, "window_tick", &c.Telemetry.WindowTick)
		d.integer(m, "window_depth", &c.Telemetry.WindowDepth)
		d.noExtra("telemetry", m)
	}
	if m := d.section(root, "slo"); m != nil {
		d.boolean(m, "enabled", &c.SLO.Enabled)
		d.str(m, "objectives", &c.SLO.Objectives)
		d.noExtra("slo", m)
	}
	for key := range root {
		d.errf("unknown top-level section %q", key)
	}
	if d.err != nil {
		return base, fmt.Errorf("proxy: config: %w", d.err)
	}
	return c, nil
}

// decoder accumulates the first decode error while pulling typed values out
// of the parsed YAML tree.
type decoder struct{ err error }

func (d *decoder) errf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) section(root map[string]any, key string) map[string]any {
	raw, ok := root[key]
	if !ok {
		return nil
	}
	delete(root, key)
	m, ok := raw.(map[string]any)
	if !ok {
		d.errf("%s: want a mapping", key)
		return nil
	}
	return m
}

func (d *decoder) scalar(m map[string]any, key string) (string, bool) {
	raw, ok := m[key]
	if !ok {
		return "", false
	}
	delete(m, key)
	s, ok := raw.(string)
	if !ok {
		d.errf("%s: want a scalar", key)
		return "", false
	}
	return s, true
}

func (d *decoder) str(m map[string]any, key string, dst *string) {
	if s, ok := d.scalar(m, key); ok {
		*dst = s
	}
}

func (d *decoder) integer(m map[string]any, key string, dst *int) {
	if s, ok := d.scalar(m, key); ok {
		n, err := strconv.Atoi(s)
		if err != nil {
			d.errf("%s: bad integer %q", key, s)
			return
		}
		*dst = n
	}
}

func (d *decoder) boolean(m map[string]any, key string, dst *bool) {
	if s, ok := d.scalar(m, key); ok {
		switch s {
		case "true", "yes", "on":
			*dst = true
		case "false", "no", "off":
			*dst = false
		default:
			d.errf("%s: bad boolean %q", key, s)
		}
	}
}

func (d *decoder) duration(m map[string]any, key string, dst *time.Duration) {
	if s, ok := d.scalar(m, key); ok {
		v, err := time.ParseDuration(s)
		if err != nil {
			d.errf("%s: bad duration %q", key, s)
			return
		}
		*dst = v
	}
}

func (d *decoder) noExtra(section string, m map[string]any) {
	for key := range m {
		d.errf("%s: unknown key %q", section, key)
	}
}
