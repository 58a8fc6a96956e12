package tracing

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// ReadSpans parses a span dump: JSONL, a meta line followed by span lines
// (WriteJSONL). Spans come back in file order. A Chrome trace is a rendering
// of a dump, not a dump; handed one, ReadSpans says so.
func ReadSpans(r io.Reader) ([]Span, Meta, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var meta Meta
	var spans []Span
	lineNo := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lineNo++
		if lineNo == 1 {
			if bytes.HasPrefix(line, []byte(chromeHead)) {
				return nil, Meta{}, fmt.Errorf("this is a Chrome trace, a rendering for Perfetto: analyse the span dump instead (hermes-bench -spans FILE, hermes-lb -trace FILE)")
			}
			if err := json.Unmarshal(line, &meta); err != nil {
				return nil, Meta{}, fmt.Errorf("meta line: %w", err)
			}
			if meta.FormatVersion != 1 {
				return nil, Meta{}, fmt.Errorf("meta line: unsupported hermes_spans version %d", meta.FormatVersion)
			}
			continue
		}
		s := Span{Kind: NumKinds} // a line must name its kind
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, Meta{}, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if s.Kind == NumKinds {
			return nil, Meta{}, fmt.Errorf("line %d: span without a kind", lineNo)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, Meta{}, err
	}
	if lineNo == 0 {
		return nil, Meta{}, fmt.Errorf("empty span dump")
	}
	return spans, meta, nil
}
