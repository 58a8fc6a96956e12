// Package proxy is the production-grade real-socket reverse proxy behind
// cmd/hermes-lb: an HTTP/1.1 edge whose worker scheduling runs the Hermes
// control loop (workers publish to the Worker Status Table, every worker runs
// Algorithm 1, the acceptor picks workers from the live selection bitmap) and
// whose backend pool adds the classic L7 edge features — active health
// checks, circuit breaking with half-open probing, weighted and
// least-connection policies, and bounded retry/buffering — so backend
// availability and worker-load steering become one userspace decision
// (docs/PROXY.md).
package proxy

import (
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
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

// HealthCheckConfig tunes active backend health checks: the out-of-band
// detector. Failures of proxied requests are the circuit breaker's to judge.
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
}

// CircuitBreakerConfig tunes per-backend circuit breaking: the in-band
// detector, which evicts a backend whose proxied requests fail and readmits
// it through half-open trials, with or without a prober.
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

// SLOSettings arms the burn-rate monitor, which samples the registry on a
// period derived from its windows (telemetry.NewSLO).
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
// DefaultConfig then overlay a file (LoadFile) and flags (BindFlags).
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
	SLO            SLOSettings

	// DialTimeout bounds one upstream dial.
	DialTimeout time.Duration
	// ResponseTimeout bounds one upstream exchange: writing the request and
	// reading the reply.
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
		},
		CircuitBreaker: CircuitBreakerConfig{
			Enabled:          true,
			FailureThreshold: 3,
			SuccessThreshold: 2,
			Timeout:          10 * time.Second,
		},
		Buffer: BufferConfig{
			MaxRequestBody: 10 << 20,
			Retries:        2,
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
	if c.SLO.Enabled {
		if _, err := c.sloConfig(); err != nil {
			return fmt.Errorf("proxy: slo: %w", err)
		}
	}
	return nil
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

// setting is one config.yaml key: where it sits, the hermes-lb flag that
// also sets it ("" for file-only keys), and how a value is applied. Both
// configuration paths go through set — LoadFile for the file, BindFlags for
// the flags — so a key and its flag cannot disagree.
type setting struct {
	section, key, flag, usage string
	set                       func(*Config, string) error
}

// settings is every config.yaml key (docs/PROXY.md), in the document's order.
// Top-level "backends" is a list the file path decodes itself; its row is
// what the -backends flag sets.
var settings = []setting{
	{"server", "listen", "listen", "address to listen on", str(func(c *Config) *string { return &c.Listen })},
	{"server", "admin_listen", "admin", "admin address serving the REST API (/healthz /backends /slo /policy /status; every number: /stats as JSON, /metrics as OpenMetrics)", str(func(c *Config) *string { return &c.AdminListen })},
	{"server", "workers", "workers", "worker goroutines (1-64)", integer(func(c *Config) *int { return &c.Workers })},
	{"server", "drain_timeout", "drain-timeout", "graceful-shutdown drain deadline", duration(func(c *Config) *time.Duration { return &c.DrainTimeout })},
	{"server", "dial_timeout", "", "", duration(func(c *Config) *time.Duration { return &c.DialTimeout })},
	{"server", "response_timeout", "", "", duration(func(c *Config) *time.Duration { return &c.ResponseTimeout })},
	{"server", "client_idle_timeout", "", "", duration(func(c *Config) *time.Duration { return &c.ClientIdleTimeout })},
	{"", "backends", "backends", "comma-separated backend addresses, each optionally addr*weight", func(c *Config, v string) (err error) {
		c.Backends, err = ParseBackends(v)
		return err
	}},
	{"load_balancing", "algorithm", "policy", "backend policy: round-robin | weighted | least-connections", str(func(c *Config) *string { return &c.Policy })},
	{"health_check", "enabled", "", "", boolean(func(c *Config) *bool { return &c.HealthCheck.Enabled })},
	{"health_check", "path", "", "", str(func(c *Config) *string { return &c.HealthCheck.Path })},
	{"health_check", "interval", "", "", duration(func(c *Config) *time.Duration { return &c.HealthCheck.Interval })},
	{"health_check", "timeout", "", "", duration(func(c *Config) *time.Duration { return &c.HealthCheck.Timeout })},
	{"health_check", "healthy_threshold", "", "", integer(func(c *Config) *int { return &c.HealthCheck.HealthyThreshold })},
	{"health_check", "unhealthy_threshold", "", "", integer(func(c *Config) *int { return &c.HealthCheck.UnhealthyThreshold })},
	{"circuit_breaker", "enabled", "", "", boolean(func(c *Config) *bool { return &c.CircuitBreaker.Enabled })},
	{"circuit_breaker", "failure_threshold", "", "", integer(func(c *Config) *int { return &c.CircuitBreaker.FailureThreshold })},
	{"circuit_breaker", "success_threshold", "", "", integer(func(c *Config) *int { return &c.CircuitBreaker.SuccessThreshold })},
	{"circuit_breaker", "timeout", "", "", duration(func(c *Config) *time.Duration { return &c.CircuitBreaker.Timeout })},
	{"buffer", "max_request_body", "", "", integer(func(c *Config) *int { return &c.Buffer.MaxRequestBody })},
	{"buffer", "retries", "", "", integer(func(c *Config) *int { return &c.Buffer.Retries })},
	{"slo", "enabled", "", "", boolean(func(c *Config) *bool { return &c.SLO.Enabled })},
	{"slo", "objectives", "slo", `SLO objectives ("latency<=250ms@99%;errors@99.9%;page=10x/10s+1m;warn=2x/1m+5m"); "off" disables the monitor`, str(func(c *Config) *string { return &c.SLO.Objectives })},
}

// The four typed setters: each parses a scalar into the field f selects.

func str(f func(*Config) *string) func(*Config, string) error {
	return func(c *Config, v string) error { *f(c) = v; return nil }
}

func integer(f func(*Config) *int) func(*Config, string) error {
	return func(c *Config, v string) (err error) {
		*f(c), err = atoi(v)
		return err
	}
}

func atoi(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", v)
	}
	return n, nil
}

func boolean(f func(*Config) *bool) func(*Config, string) error {
	return func(c *Config, v string) error {
		switch v {
		case "true", "yes", "on":
			*f(c) = true
		case "false", "no", "off":
			*f(c) = false
		default:
			return fmt.Errorf("bad boolean %q", v)
		}
		return nil
	}
}

func duration(f func(*Config) *time.Duration) func(*Config, string) error {
	return func(c *Config, v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("bad duration %q", v)
		}
		*f(c) = d
		return nil
	}
}

// BindFlags registers the flags of the settings table on fs. The returned
// apply replays, in command-line order, the flags the user gave through the
// same setters the file uses; call it after LoadFile so that flags override
// the file and the file overrides the defaults. -slo is the one flag that
// does more than its key: "off" disables the monitor, any other spec enables
// it with those objectives.
func BindFlags(fs *flag.FlagSet) (apply func(*Config) error) {
	var given []func(*Config) error
	for _, s := range settings {
		if s.flag == "" {
			continue
		}
		fs.Func(s.flag, s.usage, func(v string) error {
			given = append(given, func(c *Config) error {
				if s.flag == "slo" {
					if c.SLO.Enabled = v != "off"; !c.SLO.Enabled {
						return nil
					}
				}
				if err := s.set(c, v); err != nil {
					return fmt.Errorf("-%s: %w", s.flag, err)
				}
				return nil
			})
			return nil
		})
	}
	return func(c *Config) error {
		for _, set := range given {
			if err := set(c); err != nil {
				return err
			}
		}
		return nil
	}
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
	if err := c.decode(root); err != nil {
		return base, fmt.Errorf("proxy: config: %w", err)
	}
	return c, nil
}

// decode applies a parsed file through the settings table, in file order:
// the first bad key the file holds is the one reported.
func (c *Config) decode(root yamlMap) error {
	for _, top := range root {
		if top.key == "backends" {
			bs, err := decodeBackends(top.val)
			if err != nil {
				return err
			}
			c.Backends = bs
			continue
		}
		if !slices.ContainsFunc(settings, func(s setting) bool { return s.section == top.key }) {
			return fmt.Errorf("unknown top-level section %q", top.key)
		}
		m, ok := top.val.(yamlMap)
		if !ok {
			return fmt.Errorf("%s: want a mapping", top.key)
		}
		for _, e := range m {
			i := slices.IndexFunc(settings, func(s setting) bool { return s.section == top.key && s.key == e.key })
			if i < 0 {
				return fmt.Errorf("%s: unknown key %q", top.key, e.key)
			}
			if err := setScalar(e, func(v string) error { return settings[i].set(c, v) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// setScalar hands a key's scalar value to set, naming the key in any error.
func setScalar(e yamlEntry, set func(string) error) error {
	v, ok := e.val.(string)
	if !ok {
		return fmt.Errorf("%s: want a scalar", e.key)
	}
	if err := set(v); err != nil {
		return fmt.Errorf("%s: %w", e.key, err)
	}
	return nil
}

// decodeBackends reads the backends list: mappings of address and weight.
func decodeBackends(raw any) ([]BackendConfig, error) {
	items, ok := raw.([]any)
	if !ok {
		return nil, fmt.Errorf("backends: want a list")
	}
	out := make([]BackendConfig, len(items))
	for i, it := range items {
		m, ok := it.(yamlMap)
		if !ok {
			return nil, fmt.Errorf("backends[%d]: want a mapping with address/weight", i)
		}
		b := &out[i]
		b.Weight = 1
		for _, e := range m {
			var set func(string) error
			switch e.key {
			case "address":
				set = func(v string) error { b.Address = v; return nil }
			case "weight":
				set = func(v string) (err error) { b.Weight, err = atoi(v); return err }
			default:
				return nil, fmt.Errorf("backends[%d]: unknown key %q", i, e.key)
			}
			if err := setScalar(e, set); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
