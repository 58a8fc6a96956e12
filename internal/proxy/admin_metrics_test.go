package proxy

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"hermes/internal/openmetrics"
	"hermes/internal/telemetry"
)

// TestAdminMetricsPlane covers the live metrics endpoints: /metrics is a
// conformant OpenMetrics exposition, /stats is the same registry snapshot in
// the encoding of a hermes-bench -metrics cell, /slo reports the monitor,
// every JSON endpoint declares its content type and no-store, and /healthz
// carries the SLO verdict.
func TestAdminMetricsPlane(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	p := startProxy(t, cfg)
	for i := 0; i < 5; i++ {
		if _, err := get(p.Addr(), "/", nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(AdminHandler(p))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("/metrics content type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/metrics cache-control = %q", cc)
	}
	fams, err := openmetrics.Validate(body)
	if err != nil {
		t.Fatalf("/metrics failed conformance: %v", err)
	}
	byName := map[string]bool{}
	for i := range fams {
		byName[fams[i].Name] = true
	}
	for _, want := range []string{
		"hermes_proxy_request_latency_ns",
		"hermes_proxy_worker_requests_served",
		"hermes_core_schedule_recomputes",
		"hermes_slo_state",
	} {
		if !byName[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}

	// /stats decodes as what `hermesctl check metrics` reads a cell into,
	// and carries every proxy.* row of the catalog with the values the proxy
	// holds.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/stats is not a registry snapshot: %v", err)
	}
	doc, err := os.ReadFile("../../docs/TELEMETRY.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `(proxy\\.[a-z0-9_.]+)` \\|").FindAllStringSubmatch(string(doc), -1)
	if len(rows) < 19 {
		t.Fatalf("docs/TELEMETRY.md lists %d proxy.* rows, want the whole table", len(rows))
	}
	for _, m := range rows {
		if snap.Get(m[1]) == nil {
			t.Errorf("/stats has no %s row", m[1])
		}
	}
	if ms := snap.Get("proxy.worker.requests_served"); ms == nil || ms.Total() != 5 {
		t.Errorf("/stats proxy.worker.requests_served = %+v, want 5 in all", ms)
	}
	if ms := snap.Get("proxy.request_latency_ns"); ms == nil || ms.Count != 5 || len(ms.Buckets) == 0 {
		t.Errorf("/stats proxy.request_latency_ns = %+v, want 5 observations with buckets", ms)
	}
	if snap.Get("core.schedule.recomputes") == nil {
		t.Error("/stats has no core.schedule.recomputes row")
	}

	resp, err = http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/slo status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/slo content type = %q", ct)
	}
	for _, want := range []string{`"state"`, `"latency_burn"`, `"errors_burn"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/slo body missing %s: %s", want, body)
		}
	}

	// Every JSON endpoint declares content type and no-store.
	for _, path := range []string{"/healthz", "/backends", "/stats", "/slo"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s content type = %q", path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s cache-control = %q", path, cc)
		}
	}

	// /healthz carries the SLO verdict ("ok" on a clean run).
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"slo": "ok"`) {
		t.Errorf("/healthz missing slo state: %s", body)
	}
}

// TestAdminSLODisabled: with the monitor off, nothing samples the registry
// (the monitor owns the only sampler and its ring), /slo 404s and /healthz
// omits the verdict.
func TestAdminSLODisabled(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.SLO.Enabled = false
	p := startProxy(t, cfg)
	if p.slo != nil || p.Registry().Snapshot().Get("slo.state") != nil {
		t.Fatal("SLO off, yet a monitor (and with it a sampler) exists")
	}
	srv := httptest.NewServer(AdminHandler(p))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/slo status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `"slo"`) {
		t.Errorf("/healthz should omit slo when disabled: %s", body)
	}
}
