package core

import "hermes/internal/telemetry"

// Instruments are the telemetry handles for Algorithm 1 decisions. Nil
// handles record nothing; see package telemetry.
type Instruments struct {
	// Recomputes counts schedule_and_sync invocations (controller recomputes).
	Recomputes *telemetry.Counter
	// Syncs counts successful kernel selection-map updates (syscalls).
	Syncs *telemetry.Counter
	// SyncBatched counts schedule_and_sync invocations coalesced into a
	// quantum's cached result (Config.SyncQuantum) — calls that paid neither
	// a WST scan nor a map-update syscall.
	SyncBatched *telemetry.Counter
	// WSTReads counts Worker Status Table rows read by scheduling passes.
	WSTReads *telemetry.Counter
	// EmptySets counts passes that selected nobody (kernel hash fallback).
	EmptySets *telemetry.Counter
	// Passed observes how many workers survived the whole cascade per pass.
	Passed *telemetry.Histogram
}

type options struct {
	groups int
	key    GroupKey
	ins    Instruments
}

// Option configures New.
type Option func(*options)

// WithGroups splits the fleet into exactly nGroups independent groups (§7,
// Fig. A6), overriding the automatic ceil(n/64) split. n must divide evenly
// into spans of at most 64.
func WithGroups(nGroups int) Option {
	return func(o *options) { o.groups = nGroups }
}

// WithGroupKey sets the level-1 dispatch key (GroupByTupleHash balances;
// GroupByLocalityHash keeps same-destination traffic in one group, Fig. A6).
// It has no effect on a single group.
func WithGroupKey(key GroupKey) Option {
	return func(o *options) { o.key = key }
}

// WithInstruments wires telemetry at construction time (equivalent to
// calling Instrument on the result).
func WithInstruments(ins Instruments) Option {
	return func(o *options) { o.ins = ins }
}
