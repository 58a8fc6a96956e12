package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Meta is the dump header carried by both export formats: the first line of
// a JSONL dump, and the "hermesMeta" object of a Chrome trace. Readers use
// it to tell sampled dumps from complete ones.
type Meta struct {
	// FormatVersion is the span-dump schema version (currently 1).
	FormatVersion int `json:"hermes_spans"`
	// Cell names the bench cell (or run) the dump came from, if any.
	Cell           string `json:"cell,omitempty"`
	ConnsSeen      uint64 `json:"conns_seen"`
	ConnsKept      uint64 `json:"conns_kept"`
	SpansCommitted uint64 `json:"spans_committed"`
	SpansDropped   uint64 `json:"spans_dropped"`
}

// MetaFor builds a dump header from tracer stats.
func MetaFor(cell string, st Stats) Meta {
	return Meta{
		FormatVersion:  1,
		Cell:           cell,
		ConnsSeen:      st.ConnsSeen,
		ConnsKept:      st.ConnsKept,
		SpansCommitted: st.SpansCommitted,
		SpansDropped:   st.SpansDropped,
	}
}

// WriteJSONL writes the compact span dump: a meta header line followed by
// one JSON object per span, in the given order.
func WriteJSONL(w io.Writer, spans []Span, meta Meta) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace-event. Field order is fixed and args maps
// marshal with sorted keys, so output is byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// tid maps a span track to a Chrome thread id: kernel = 0, worker i = i+1.
func tid(worker int32) int {
	if worker == KernelTrack {
		return 0
	}
	return int(worker) + 1
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// spanArgs builds the args object shown in Perfetto's detail pane: the
// connection id and the kind's two annotations, named and rendered as its
// descriptor says.
func spanArgs(s Span) map[string]any {
	a := map[string]any{}
	if s.Conn != 0 {
		a["conn"] = s.Conn
	}
	d := s.Kind.Desc()
	d.Arg.render(a, s.Arg)
	d.Arg2.render(a, s.Arg2)
	return a
}

// render puts annotation value v into args under the slot's name, in the
// form its type calls for.
func (d ArgDesc) render(args map[string]any, v int64) {
	switch d.Type {
	case ArgNum:
		args[d.Name] = v
	case ArgNumIfSet:
		if v != 0 {
			args[d.Name] = v
		}
	case ArgBool:
		args[d.Name] = v != 0
	case ArgVia:
		args[d.Name] = Via(v).String()
	}
}

// chromeHead is the first line of every Chrome trace WriteChrome writes, by
// which ReadSpans recognises a rendering handed to it as a dump.
const chromeHead = `{"traceEvents":[`

// WriteChrome writes a Chrome trace-event JSON file loadable in Perfetto:
// one "thread" per worker plus a kernel thread (tid 0), all under pid 0.
// Run-to-completion worker spans (serve, epoll_wait) are complete events;
// connection-scoped waits (accept_queue, notify_wait) overlap freely and go
// out as async begin/end pairs; everything else is an instant (KindDesc.Phase).
// Timestamps are microseconds (ns/1000). The file is a rendering, not a dump:
// ReadSpans does not take it back, so keep the JSONL beside it (`hermesctl
// spans -chrome` renders one from the other at any time).
func WriteChrome(w io.Writer, spans []Span, meta Meta) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(chromeHead + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	maxWorker := int32(-1)
	for _, s := range spans {
		if s.Worker > maxWorker {
			maxWorker = s.Worker
		}
	}
	if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "kernel"}}); err != nil {
		return err
	}
	for i := int32(0); i <= maxWorker; i++ {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid(i),
			Args: map[string]any{"name": fmt.Sprintf("worker %d", i)}}); err != nil {
			return err
		}
	}

	// notify_wait spans of one connection can overlap (queued requests);
	// number them per connection so each async pair gets a unique id.
	reqSeq := map[uint64]int{}
	for _, s := range spans {
		ev := chromeEvent{Name: s.Kind.String(), Pid: 0, Tid: tid(s.Worker),
			Ts: usec(s.StartNS), Args: spanArgs(s)}
		switch s.Kind.Desc().Phase {
		case PhaseAsync:
			ev.Ph, ev.Cat = "b", "conn"
			if s.Kind == KindAcceptQueue {
				ev.ID = fmt.Sprintf("c%d", s.Conn)
			} else {
				ev.ID = fmt.Sprintf("c%d.r%d", s.Conn, reqSeq[s.Conn])
				reqSeq[s.Conn]++
			}
		case PhaseComplete:
			d := usec(s.EndNS - s.StartNS)
			ev.Ph, ev.Dur = "X", &d
		default: // instants
			ev.Ph, ev.S = "i", "t"
		}
		if err := emit(ev); err != nil {
			return err
		}
		if ev.Ph == "b" {
			end := chromeEvent{Name: ev.Name, Ph: "e", Ts: usec(s.EndNS),
				Pid: 0, Tid: ev.Tid, Cat: "conn", ID: ev.ID}
			if err := emit(end); err != nil {
				return err
			}
		}
	}

	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\",\"hermesMeta\":"); err != nil {
		return err
	}
	if _, err := bw.Write(metaJSON); err != nil {
		return err
	}
	if _, err := bw.WriteString("}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
