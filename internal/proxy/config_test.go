package proxy

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

const fullYAML = `# exemplar config (docs/PROXY.md)
server:
  listen: "127.0.0.1:8080"
  admin_listen: "127.0.0.1:9900"
  workers: 8
  drain_timeout: 15s
  dial_timeout: 1s
  response_timeout: 3s
  client_idle_timeout: 7s

backends:
  - address: 127.0.0.1:9001
    weight: 3
  - address: 127.0.0.1:9002   # trailing comment
  - address: "127.0.0.1:9003"
    weight: 2

load_balancing:
  algorithm: weighted

health_check:
  enabled: true
  path: /health
  interval: 250ms
  timeout: 100ms
  healthy_threshold: 2
  unhealthy_threshold: 3

circuit_breaker:
  enabled: true
  failure_threshold: 5
  success_threshold: 2
  timeout: 10s

buffer:
  max_request_body: 1048576
  retries: 3
`

func TestLoadYAMLFull(t *testing.T) {
	c, err := loadYAML([]byte(fullYAML), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Listen != "127.0.0.1:8080" || c.AdminListen != "127.0.0.1:9900" {
		t.Errorf("server addresses = %q / %q", c.Listen, c.AdminListen)
	}
	if c.Workers != 8 || c.DrainTimeout != 15*time.Second || c.DialTimeout != time.Second ||
		c.ResponseTimeout != 3*time.Second || c.ClientIdleTimeout != 7*time.Second {
		t.Errorf("server tuning = %+v", c)
	}
	want := []BackendConfig{
		{Address: "127.0.0.1:9001", Weight: 3},
		{Address: "127.0.0.1:9002", Weight: 1},
		{Address: "127.0.0.1:9003", Weight: 2},
	}
	if len(c.Backends) != len(want) {
		t.Fatalf("backends = %+v, want %+v", c.Backends, want)
	}
	for i, b := range want {
		if c.Backends[i] != b {
			t.Errorf("backend %d = %+v, want %+v", i, c.Backends[i], b)
		}
	}
	if c.Policy != PolicyWeighted {
		t.Errorf("policy = %q", c.Policy)
	}
	h := c.HealthCheck
	if !h.Enabled || h.Path != "/health" || h.Interval != 250*time.Millisecond ||
		h.Timeout != 100*time.Millisecond || h.HealthyThreshold != 2 ||
		h.UnhealthyThreshold != 3 {
		t.Errorf("health_check = %+v", h)
	}
	cb := c.CircuitBreaker
	if !cb.Enabled || cb.FailureThreshold != 5 || cb.SuccessThreshold != 2 || cb.Timeout != 10*time.Second {
		t.Errorf("circuit_breaker = %+v", cb)
	}
	if c.Buffer.MaxRequestBody != 1<<20 || c.Buffer.Retries != 3 {
		t.Errorf("buffer = %+v", c.Buffer)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("full config should validate: %v", err)
	}
}

// A partial file overlays the defaults instead of replacing them.
func TestLoadYAMLOverlay(t *testing.T) {
	c, err := loadYAML([]byte("server:\n  workers: 2\n"), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if c.Workers != 2 {
		t.Errorf("workers = %d, want 2", c.Workers)
	}
	if c.Listen != def.Listen || c.HealthCheck != def.HealthCheck || c.CircuitBreaker != def.CircuitBreaker {
		t.Errorf("overlay clobbered defaults: %+v", c)
	}
}

func TestLoadYAMLErrors(t *testing.T) {
	cases := []struct {
		name, yaml, want string
	}{
		{"unknown section", "nonsense:\n  a: b\n", `unknown top-level section "nonsense"`},
		{"unknown key", "server:\n  port: 80\n", `unknown key "port"`},
		{"bad integer", "server:\n  workers: many\n", "bad integer"},
		{"bad duration", "health_check:\n  interval: fast\n", "bad duration"},
		{"bad boolean", "health_check:\n  enabled: maybe\n", "bad boolean"},
		{"backends not list", "backends: 127.0.0.1:9001\n", "want a list"},
		{"tab indent", "server:\n\tworkers: 2\n", "tab"},
		// Passive health is gone: the circuit breaker judges proxied requests.
		{"passive threshold", "health_check:\n  passive_threshold: 3\n", `health_check: unknown key "passive_threshold"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadYAML([]byte(tc.yaml), DefaultConfig())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Every rejection must be a one-line reason (the CLI prints it and exits 2).
func TestValidateRejects(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		c.Backends = []BackendConfig{{Address: "127.0.0.1:9001", Weight: 1}}
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero workers", mod(func(c *Config) { c.Workers = 0 }), "workers"},
		{"too many workers", mod(func(c *Config) { c.Workers = 65 }), "workers"},
		{"bad policy", mod(func(c *Config) { c.Policy = "fastest" }), "policy"},
		{"no backends", mod(func(c *Config) { c.Backends = nil }), "at least one backend"},
		{"malformed address", mod(func(c *Config) { c.Backends[0].Address = "localhost" }), "malformed address"},
		{"bad port", mod(func(c *Config) { c.Backends[0].Address = "h:99999" }), "bad port"},
		{"duplicate", mod(func(c *Config) {
			c.Backends = append(c.Backends, BackendConfig{Address: "127.0.0.1:9001"})
		}), "duplicate"},
		{"negative weight", mod(func(c *Config) { c.Backends[0].Weight = -1 }), "weight"},
		{"bad probe path", mod(func(c *Config) { c.HealthCheck.Path = "health" }), "must start with /"},
		{"zero interval", mod(func(c *Config) { c.HealthCheck.Interval = 0 }), "interval"},
		{"zero thresholds", mod(func(c *Config) { c.HealthCheck.HealthyThreshold = 0 }), "threshold"},
		{"circuit thresholds", mod(func(c *Config) { c.CircuitBreaker.FailureThreshold = 0 }), "threshold"},
		{"circuit timeout", mod(func(c *Config) { c.CircuitBreaker.Timeout = 0 }), "timeout"},
		{"negative body cap", mod(func(c *Config) { c.Buffer.MaxRequestBody = -1 }), "max_request_body"},
		{"retries", mod(func(c *Config) { c.Buffer.Retries = 17 }), "retries"},
		{"zero dial timeout", mod(func(c *Config) { c.DialTimeout = 0 }), "timeouts"},
		{"negative drain", mod(func(c *Config) { c.DrainTimeout = -time.Second }), "drain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
			if err != nil && strings.Contains(err.Error(), "\n") {
				t.Errorf("validation error is not one line: %q", err)
			}
		})
	}
}

func TestParseBackends(t *testing.T) {
	got, err := ParseBackends("127.0.0.1:9001,127.0.0.1:9002*3")
	if err != nil {
		t.Fatal(err)
	}
	want := []BackendConfig{
		{Address: "127.0.0.1:9001", Weight: 1},
		{Address: "127.0.0.1:9002", Weight: 3},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backend %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", "a:1,,b:2", "a:1*zero", "a:1*0"} {
		if _, err := ParseBackends(bad); err == nil {
			t.Errorf("ParseBackends(%q) accepted", bad)
		}
	}
}

func TestLoadYAMLTelemetrySLO(t *testing.T) {
	cfg, err := loadYAML([]byte(`
slo:
  enabled: "true"
  objectives: "latency<=100ms@99.5%;errors@99.9%"
`), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.SLO.Enabled || cfg.SLO.Objectives != "latency<=100ms@99.5%;errors@99.9%" {
		t.Errorf("slo = %+v", cfg.SLO)
	}
	sloCfg, err := cfg.sloConfig()
	if err != nil {
		t.Fatal(err)
	}
	if sloCfg.LatencyThresholdNS != int64(100*time.Millisecond) {
		t.Errorf("latency threshold = %d", sloCfg.LatencyThresholdNS)
	}
	if sloCfg.LatencyMetric != "proxy.request_latency_ns" {
		t.Errorf("latency metric = %q", sloCfg.LatencyMetric)
	}

	// A malformed objectives spec fails Validate.
	bad := DefaultConfig()
	bad.Backends = []BackendConfig{{Address: "127.0.0.1:9001"}}
	bad.SLO.Objectives = "latency<=junk"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "slo") {
		t.Errorf("bad objectives: err = %v", err)
	}
	// The sampler's period and depth come from the SLO's windows: the old
	// telemetry section is an unknown section now.
	_, err = loadYAML([]byte("telemetry:\n  window_tick: 500ms\n"), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), `unknown top-level section "telemetry"`) {
		t.Errorf("telemetry section: err = %v", err)
	}
	if _, err := loadYAML([]byte("slo:\n  burn: \"1\"\n"), DefaultConfig()); err == nil {
		t.Error("unknown slo key accepted")
	}
}

// A file with several unknown keys reports the first in file order, every
// time: the message must not depend on map iteration.
func TestLoadYAMLUnknownKeysInFileOrder(t *testing.T) {
	for _, tc := range []struct{ yaml, want string }{
		{"a: 1\nb: 2\n", `proxy: config: unknown top-level section "a"`},
		{"server:\n  zz: 1\n  aa: 2\n", `proxy: config: server: unknown key "zz"`},
		{"backends:\n  - port: 1\n    host: h\n", `proxy: config: backends[0]: unknown key "port"`},
	} {
		for i := 0; i < 50; i++ {
			_, err := loadYAML([]byte(tc.yaml), DefaultConfig())
			if err == nil || err.Error() != tc.want {
				t.Fatalf("load %d of %q: error = %v, want %s", i, tc.yaml, err, tc.want)
			}
		}
	}
}

// A # starts a comment only at the start of a line or after a space, as in
// YAML; inside a value or inside quotes it is text.
func TestLoadYAMLCommentsNeedASpace(t *testing.T) {
	c, err := loadYAML([]byte(`# leading comment
health_check:
  path: /health#x       # the comment, not the fragment, is dropped
slo:
  objectives: "latency<=100ms@99.5% # not a comment"
`), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.HealthCheck.Path != "/health#x" {
		t.Errorf("path = %q, want /health#x", c.HealthCheck.Path)
	}
	if c.SLO.Objectives != "latency<=100ms@99.5% # not a comment" {
		t.Errorf("objectives = %q", c.SLO.Objectives)
	}
}

// A quote that opens a scalar must close it; what follows the closing quote
// can only be a comment.
func TestLoadYAMLUnterminatedQuote(t *testing.T) {
	for _, bad := range []string{
		"backends:\n  - address: \"127.0.0.1:9001\n",
		"server:\n  listen: '127.0.0.1:8080\n",
		"server:\n  listen: \"127.0.0.1:8080\" junk\n",
		"backends:\n  - \"127.0.0.1:9001\n",
		"server:\n  listen: \"\n", // a lone quote opens and never closes
		"backends:\n  - '\n",
	} {
		if c, err := loadYAML([]byte(bad), DefaultConfig()); err == nil || !strings.Contains(err.Error(), "quote") {
			t.Errorf("%q: config %+v, error %v; want a quote error", bad, c, err)
		}
	}
}

// bindFlags parses args over a fresh flag set and applies them to c.
func bindFlags(t *testing.T, c *Config, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("hermes-lb", flag.ContinueOnError)
	apply := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return apply(c)
}

// The flag path: defaults < file < flags, and a flag not given leaves the
// file's value alone.
func TestBindFlagsPrecedence(t *testing.T) {
	c, err := loadYAML([]byte(fullYAML), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := bindFlags(t, &c, "-workers", "3", "-backends", "127.0.0.1:7001*2", "-drain-timeout", "1s",
		"-listen", ":9000", "-admin", ":9901", "-policy", "least-connections"); err != nil {
		t.Fatal(err)
	}
	want, _ := loadYAML([]byte(fullYAML), DefaultConfig()) // file over defaults
	want.Workers, want.DrainTimeout, want.Listen, want.AdminListen, want.Policy = 3, time.Second, ":9000", ":9901", PolicyLeastConn
	want.Backends = []BackendConfig{{Address: "127.0.0.1:7001", Weight: 2}}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("flags over file:\n got %+v\nwant %+v", c, want)
	}

	// No flags: the file's values (and the defaults under them) survive.
	c2, _ := loadYAML([]byte("server:\n  workers: 6\n"), DefaultConfig())
	if err := bindFlags(t, &c2); err != nil {
		t.Fatal(err)
	}
	want2 := DefaultConfig()
	want2.Workers = 6
	if !reflect.DeepEqual(c2, want2) {
		t.Errorf("no flags changed the file's config: %+v", c2)
	}
}

// -slo off disables the monitor; -slo SPEC enables it with those objectives,
// also over a file that disabled it.
func TestBindFlagsSLO(t *testing.T) {
	c := DefaultConfig()
	if err := bindFlags(t, &c, "-slo", "off"); err != nil || c.SLO.Enabled {
		t.Errorf("-slo off: slo = %+v, err %v", c.SLO, err)
	}
	c, _ = loadYAML([]byte("slo:\n  enabled: false\n"), DefaultConfig())
	const spec = "latency<=100ms@99.5%;errors@99.9%"
	if err := bindFlags(t, &c, "-slo", spec); err != nil || !c.SLO.Enabled || c.SLO.Objectives != spec {
		t.Errorf("-slo spec: slo = %+v, err %v", c.SLO, err)
	}
	if s, err := c.sloConfig(); err != nil || s.LatencyThresholdNS != int64(100*time.Millisecond) {
		t.Errorf("-slo spec objectives: %+v, %v", s, err)
	}
}

// A bad flag value is a one-line error naming the flag.
func TestBindFlagsErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-backends", "a:1*zero"}, `-backends: proxy: bad weight in backend entry "a:1*zero"`},
		{[]string{"-backends", "a:1,,b:2"}, "-backends: proxy: empty backend entry"},
		{[]string{"-workers", "many"}, `-workers: bad integer "many"`},
		{[]string{"-drain-timeout", "soon"}, `-drain-timeout: bad duration "soon"`},
	} {
		c := DefaultConfig()
		err := bindFlags(t, &c, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error = %v, want one line containing %q", tc.args, err, tc.want)
		}
	}
}

// docsConfigBlock returns the ```yaml block of docs/PROXY.md.
func docsConfigBlock(t testing.TB) []byte {
	data, err := os.ReadFile("../../docs/PROXY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(data), "```yaml\n")
	block, _, ok2 := strings.Cut(block, "```")
	if !ok || !ok2 {
		t.Fatal("docs/PROXY.md has no ```yaml block")
	}
	return []byte(block)
}

// TestConfigDocMatchesTable holds docs/PROXY.md to its claim "every key,
// with the built-in default": the block loads to DefaultConfig plus its two
// backends, and every row of the settings table appears in it.
func TestConfigDocMatchesTable(t *testing.T) {
	block := docsConfigBlock(t)
	c, err := loadYAML(block, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.Backends = []BackendConfig{{Address: "127.0.0.1:9001", Weight: 3}, {Address: "127.0.0.1:9002", Weight: 1}}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("docs block is not the defaults:\n got %+v\nwant %+v", c, want)
	}
	root, err := parseYAML(block)
	if err != nil {
		t.Fatal(err)
	}
	has := func(m yamlMap, key string) (any, bool) {
		for _, e := range m {
			if e.key == key {
				return e.val, true
			}
		}
		return nil, false
	}
	for _, s := range settings {
		if s.section == "" {
			if _, ok := has(root, s.key); !ok {
				t.Errorf("docs block lacks top-level %s", s.key)
			}
			continue
		}
		sec, _ := has(root, s.section)
		m, _ := sec.(yamlMap)
		if _, ok := has(m, s.key); !ok {
			t.Errorf("docs block lacks %s.%s", s.section, s.key)
		}
	}
}

// FuzzLoadYAML throws arbitrary bytes at the config loader: it must never
// panic, and the same bytes must always give the same Config or the same
// error. The seed corpus under testdata/fuzz/FuzzLoadYAML holds the docs
// block, scripts/e2e_smoke.sh's file and TestLoadYAMLErrors' inputs.
func FuzzLoadYAML(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c1, err1 := loadYAML(data, DefaultConfig())
		c2, err2 := loadYAML(data, DefaultConfig())
		if fmt.Sprint(err1) != fmt.Sprint(err2) || !reflect.DeepEqual(c1, c2) {
			t.Fatalf("two loads of %q differ: %v / %v", data, err1, err2)
		}
		if err1 != nil && !reflect.DeepEqual(c1, DefaultConfig()) {
			t.Fatalf("failed load of %q changed the base config", data)
		}
	})
}
