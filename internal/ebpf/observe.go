package ebpf

import (
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// This file is the eBPF layer's one observer seam: the ebpf.* metric catalog
// (docs/TELEMETRY.md) lives here. The layer has no assembler of its own —
// core.Controller.Observe switches observation on for the selection maps it
// owns and for the programs it attaches. Unobserved, a hook site costs one
// nil check.

// The ebpf.jit.* row names, exported for `hermesctl check metrics`, which
// asserts they exist exactly in the cells that run compiled bytecode.
const (
	MetricJITRuns     = "ebpf.jit.runs"
	MetricJITPrograms = "ebpf.jit.programs"
	MetricJITInsns    = "ebpf.jit.insns"
	MetricJITClosures = "ebpf.jit.closures"
)

// row describes one ebpf.* counter.
func row(name, unit, help string) telemetry.Metric {
	return telemetry.Metric{Name: name, Layer: "ebpf", Unit: unit, Help: help}
}

// mapObs observes one array map's element operations.
type mapObs struct {
	updates, lookups *telemetry.Counter
	tr               *tracing.MapTrace
}

// Observe registers the ebpf.selmap.* counters on sink and sends each
// successful Update to tr as a selmap_sync instant annotated with the written
// bitmap's popcount; either may be nil. The map has no clock of its own — the
// trace handle carries one. Every map observed on one sink shares the two
// counters.
func (m *ArrayMap) Observe(sink *telemetry.Registry, tr *tracing.MapTrace) {
	if sink == nil && tr == nil {
		return
	}
	o := &mapObs{tr: tr}
	o.updates = sink.Counter(row("ebpf.selmap.updates", "syscalls",
		"userspace selection-map update operations"))
	o.lookups = sink.Counter(row("ebpf.selmap.lookups", "ops",
		"selection-map element reads (kernel + userspace)"))
	m.obs = o
}

// Observe registers the ebpf.jit.* counters on sink, books this program's
// compile-time statistics (one program, its source instructions, its steps
// after fusion) and counts every Run from here on. The rows exist only where
// bytecode is attached and compiled, so a dump can tell a JIT cell from a
// native or interpreted one by their presence. The "closures" row and the
// wording of two help strings date from when a step was a closure; they are
// part of every -metrics dump and stay as they are so dumps remain comparable.
// On a nil sink every handle is the no-op one.
func (c *Compiled) Observe(sink *telemetry.Registry) {
	c.runs = sink.Counter(row(MetricJITRuns, "runs",
		"dispatch decisions executed by the compiled (JIT) program"))
	sink.Counter(row(MetricJITPrograms, "programs",
		"programs lowered to native closure chains")).Inc()
	sink.Counter(row(MetricJITInsns, "insns",
		"source bytecode instructions across compiled programs")).Add(uint64(c.Insns()))
	sink.Counter(row(MetricJITClosures, "closures",
		"native closures after idiom fusion (vs insns: fusion ratio)")).Add(uint64(c.Steps()))
}
