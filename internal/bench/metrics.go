package bench

import (
	"encoding/json"
	"sort"
	"sync"

	"hermes/internal/telemetry"
)

// MetricsCollector gathers one telemetry registry per experiment cell.
// Cells ask for theirs through Options.Metrics; a nil collector hands out
// nil registries, which disables recording end to end (the layers hold nil
// instrument handles). Cell runs race on Registry from the fan-out pool, so
// the collector is mutex-guarded; the per-cell registries themselves are
// written only by their own cell's simulation.
type MetricsCollector struct {
	mu    sync.Mutex
	cells map[string]*telemetry.Registry
}

// NewMetricsCollector returns an empty collector.
func NewMetricsCollector() *MetricsCollector {
	return &MetricsCollector{cells: make(map[string]*telemetry.Registry)}
}

// Registry returns the named cell's registry, creating it on first use. A
// nil receiver returns nil (recording disabled).
func (mc *MetricsCollector) Registry(cell string) *telemetry.Registry {
	if mc == nil {
		return nil
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	reg, ok := mc.cells[cell]
	if !ok {
		reg = telemetry.NewRegistry()
		mc.cells[cell] = reg
	}
	return reg
}

// CellNames returns the recorded cell names, sorted.
func (mc *MetricsCollector) CellNames() []string {
	if mc == nil {
		return nil
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	names := make([]string, 0, len(mc.cells))
	for name := range mc.cells {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the named cell's metrics at this instant, or an empty
// snapshot if the cell never recorded.
func (mc *MetricsCollector) Snapshot(cell string) telemetry.Snapshot {
	if mc == nil {
		return telemetry.Snapshot{}
	}
	mc.mu.Lock()
	reg := mc.cells[cell]
	mc.mu.Unlock()
	return reg.Snapshot()
}

// MarshalJSON renders every cell's snapshot as {"cell": [metrics…]};
// encoding/json emits map keys sorted, so dumps are deterministic.
func (mc *MetricsCollector) MarshalJSON() ([]byte, error) {
	obj := make(map[string][]telemetry.MetricSnapshot)
	mc.mu.Lock()
	for name, reg := range mc.cells {
		obj[name] = reg.Snapshot().Metrics
	}
	mc.mu.Unlock()
	return json.Marshal(obj)
}
