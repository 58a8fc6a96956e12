package bench

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"hermes/internal/faults"
	"hermes/internal/l7lb"
	"hermes/internal/proxy"
	"hermes/internal/sim"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// catalogRow matches one row of a docs/TELEMETRY.md catalog table: its first
// cell is the backticked dotted metric name.
var catalogRow = regexp.MustCompile("(?m)^\\| `([a-z0-9_]+(?:\\.[a-z0-9_]+)+)` \\|")

// The metric catalog in docs/TELEMETRY.md is exactly what the system
// registers: every assembly that can attach observers — an LB in each
// dispatch mode, a fault injector with its watchdog, the real proxy — is
// built on one live registry, and the names that end up on it must equal the
// documented rows, in both directions.
func TestTelemetryCatalogMatchesDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/TELEMETRY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, ok := strings.Cut(string(doc), "\n## Metric catalog\n")
	if !ok {
		t.Fatal("docs/TELEMETRY.md has no \"## Metric catalog\" section")
	}
	documented := map[string]bool{}
	for _, m := range catalogRow.FindAllStringSubmatch(catalog, -1) {
		if documented[m[1]] {
			t.Errorf("docs/TELEMETRY.md lists %s twice", m[1])
		}
		documented[m[1]] = true
	}

	reg := telemetry.NewRegistry()
	tracer := tracing.New(tracing.Config{MaxSpans: 1 << 10})
	for _, mode := range AllModes {
		cfg := lbConfig(mode, 4, tenantPorts(1))
		cfg.Telemetry, cfg.Tracer = reg, tracer
		lb, err := l7lb.New(sim.NewEngine(1), cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if mode == l7lb.ModeHermes {
			// The faults cell: both of the layer's attach points.
			faults.NewInjector(lb, faults.Schedule{}, 1).Observe(reg, tracer)
			faults.NewWatchdog(lb, time.Millisecond).Observe(reg, tracer)
		}
	}
	pcfg := proxy.DefaultConfig()
	pcfg.Listen = "127.0.0.1:0"
	pcfg.HealthCheck.Enabled = false
	pcfg.Backends = []proxy.BackendConfig{{Address: "127.0.0.1:1"}}
	p, err := proxy.New(pcfg, proxy.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	registered := map[string]bool{}
	for _, snap := range []telemetry.Snapshot{reg.Snapshot(), p.Registry().Snapshot()} {
		for _, ms := range snap.Metrics {
			registered[ms.Name] = true
		}
	}
	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("%s is registered but has no row in docs/TELEMETRY.md", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("%s has a row in docs/TELEMETRY.md but nothing registers it", name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
