package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file renders a Snapshot in the OpenMetrics text exposition format
// (the Prometheus-compatible subset): one family per instrument with HELP
// and TYPE lines, counters suffixed _total, vec slots as a `slot` label,
// histograms as cumulative _bucket series ending in le="+Inf" plus _sum and
// _count, and a terminating `# EOF`. internal/openmetrics validates the
// output strictly (tests and `hermesctl check prom`); the proxy admin server exposes
// it as GET /metrics.

// PromContentType is the Content-Type for OpenMetrics exposition responses.
const PromContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// PromName sanitizes a dotted catalog name into a Prometheus metric name:
// "hermes_" + the name with every non-[a-zA-Z0-9_] byte mapped to '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len("hermes_") + len(name))
	b.WriteString("hermes_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeHelp escapes a HELP text: backslash and newline.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteOpenMetrics renders the snapshot as OpenMetrics text. Every
// registered instrument is exposed; sanitized-name collisions are an error
// (two catalog names must not map to one exposition family).
func WriteOpenMetrics(w io.Writer, s Snapshot) error {
	seen := make(map[string]string, len(s.Metrics))
	for i := range s.Metrics {
		ms := &s.Metrics[i]
		fam := PromName(ms.Name)
		if prev, dup := seen[fam]; dup {
			return fmt.Errorf("telemetry: exposition name collision: %q and %q both map to %q", prev, ms.Name, fam)
		}
		seen[fam] = ms.Name
		if err := writeFamily(w, fam, ms); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func writeFamily(w io.Writer, fam string, ms *MetricSnapshot) error {
	help := ms.Help
	if help == "" {
		help = fmt.Sprintf("%s-layer %s (%s)", ms.Layer, ms.Kind, ms.Unit)
	}
	typ := "gauge"
	switch ms.Kind {
	case "counter", "counter_vec":
		typ = "counter"
	case "histogram":
		typ = "histogram"
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, promEscapeHelp(help), fam, typ); err != nil {
		return err
	}
	switch ms.Kind {
	case "counter":
		_, err := fmt.Fprintf(w, "%s_total %d\n", fam, ms.Value)
		return err
	case "gauge":
		_, err := fmt.Fprintf(w, "%s %d\n", fam, ms.Value)
		return err
	case "counter_vec":
		for i, v := range ms.Values {
			if _, err := fmt.Fprintf(w, "%s_total{slot=\"%d\"} %d\n", fam, i, v); err != nil {
				return err
			}
		}
		return nil
	case "gauge_vec":
		for i, v := range ms.Values {
			if _, err := fmt.Fprintf(w, "%s{slot=\"%d\"} %d\n", fam, i, v); err != nil {
				return err
			}
		}
		return nil
	case "histogram":
		var cum uint64
		for _, b := range ms.Buckets {
			cum += b.Count
			le := "+Inf"
			if !b.Inf {
				le = strconv.FormatInt(b.LE, 10)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", fam, le, cum); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", fam, ms.Sum, fam, ms.Count)
		return err
	default:
		return fmt.Errorf("telemetry: exposition: unknown kind %q for %q", ms.Kind, ms.Name)
	}
}
