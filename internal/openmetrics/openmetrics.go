// Package openmetrics is a strict parser and conformance checker for the
// OpenMetrics text exposition format — the validation side of
// internal/telemetry's renderer. It is deliberately pickier than a scrape
// client needs to be: HELP/TYPE pairing, name and label syntax, escape and
// UTF-8 validity, suffix discipline per family type, histogram bucket
// monotonicity, le="+Inf" agreement with _count, and _sum/_count
// consistency are all hard errors. Tests and `hermesctl check prom` run it against
// GET /metrics output and hermes-bench exposition dumps.
package openmetrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line: a suffixed metric name, its labels, and a
// float value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the named label's value ("" when absent).
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Family is one metric family: its metadata and every sample that follows
// it in the exposition.
type Family struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | unknown
	Help    string
	Samples []Sample
}

// Sample returns the family sample with the given suffixed name and no
// labels, or nil.
func (f *Family) Sample(name string) *Sample {
	for i := range f.Samples {
		if f.Samples[i].Name == name && len(f.Samples[i].Labels) == 0 {
			return &f.Samples[i]
		}
	}
	return nil
}

// Parse reads a full OpenMetrics exposition. It enforces lexical and
// structural conformance (see Validate for the semantic layer): UTF-8
// input, `# HELP`/`# TYPE` metadata preceding samples and appearing at most
// once per family, contiguous families, legal metric/label names, legal
// escapes, and a final `# EOF` with nothing after it.
func Parse(data []byte) ([]Family, error) {
	if !utf8.Valid(data) {
		return nil, fmt.Errorf("openmetrics: exposition is not valid UTF-8")
	}
	var (
		fams   []Family
		byName = map[string]int{}
		cur    = -1 // index into fams of the family currently accepting samples
		sawEOF bool
	)
	lines := strings.Split(string(data), "\n")
	for li, line := range lines {
		lineNo := li + 1
		if line == "" {
			// Only legal as the trailing empty string after the final \n.
			if li == len(lines)-1 {
				continue
			}
			return nil, fmt.Errorf("openmetrics: line %d: empty line", lineNo)
		}
		if sawEOF {
			return nil, fmt.Errorf("openmetrics: line %d: content after # EOF", lineNo)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseMeta(line)
			if err != nil {
				return nil, fmt.Errorf("openmetrics: line %d: %v", lineNo, err)
			}
			idx, ok := byName[name]
			if !ok {
				byName[name] = len(fams)
				idx = len(fams)
				fams = append(fams, Family{Name: name})
			} else if idx != len(fams)-1 {
				return nil, fmt.Errorf("openmetrics: line %d: metadata for %q interleaved with other families", lineNo, name)
			}
			f := &fams[idx]
			if len(f.Samples) > 0 {
				return nil, fmt.Errorf("openmetrics: line %d: %s for %q after its samples", lineNo, kind, name)
			}
			switch kind {
			case "HELP":
				if f.Help != "" {
					return nil, fmt.Errorf("openmetrics: line %d: duplicate HELP for %q", lineNo, name)
				}
				help, err := unescapeHelp(rest)
				if err != nil {
					return nil, fmt.Errorf("openmetrics: line %d: %v", lineNo, err)
				}
				f.Help = help
			case "TYPE":
				if f.Type != "" {
					return nil, fmt.Errorf("openmetrics: line %d: duplicate TYPE for %q", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "unknown":
					f.Type = rest
				default:
					return nil, fmt.Errorf("openmetrics: line %d: bad TYPE %q", lineNo, rest)
				}
				cur = idx
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("openmetrics: line %d: %v", lineNo, err)
		}
		if cur < 0 || !nameInFamily(s.Name, &fams[cur]) {
			return nil, fmt.Errorf("openmetrics: line %d: sample %q outside its family (TYPE line missing or families interleaved)", lineNo, s.Name)
		}
		fams[cur].Samples = append(fams[cur].Samples, s)
	}
	if !sawEOF {
		return nil, fmt.Errorf("openmetrics: missing terminating # EOF")
	}
	return fams, nil
}

// Validate parses data and then checks semantic conformance family by
// family: HELP/TYPE pairing, suffix discipline, counter non-negativity,
// duplicate series, and full histogram consistency.
func Validate(data []byte) ([]Family, error) {
	fams, err := Parse(data)
	if err != nil {
		return nil, err
	}
	series := map[string]bool{}
	for i := range fams {
		f := &fams[i]
		if f.Type == "" {
			return nil, fmt.Errorf("openmetrics: family %q has HELP but no TYPE", f.Name)
		}
		if f.Help == "" {
			return nil, fmt.Errorf("openmetrics: family %q has TYPE but no HELP", f.Name)
		}
		for j := range f.Samples {
			s := &f.Samples[j]
			if err := checkSuffix(f, s); err != nil {
				return nil, err
			}
			key := seriesKey(s)
			if series[key] {
				return nil, fmt.Errorf("openmetrics: duplicate series %s", key)
			}
			series[key] = true
			if math.IsNaN(s.Value) {
				return nil, fmt.Errorf("openmetrics: series %s: NaN value", key)
			}
			if (f.Type == "counter" || f.Type == "histogram") && s.Value < 0 {
				return nil, fmt.Errorf("openmetrics: series %s: negative %s value %g", key, f.Type, s.Value)
			}
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// checkSuffix enforces per-type sample naming: counters expose only
// name_total, gauges and unknowns the bare name, histograms
// _bucket/_sum/_count.
func checkSuffix(f *Family, s *Sample) error {
	suffix := strings.TrimPrefix(s.Name, f.Name)
	ok := false
	switch f.Type {
	case "counter":
		ok = suffix == "_total"
	case "gauge", "unknown":
		ok = suffix == ""
	case "histogram":
		ok = suffix == "_bucket" || suffix == "_sum" || suffix == "_count"
	case "summary":
		ok = suffix == "" || suffix == "_sum" || suffix == "_count"
	}
	if !ok {
		return fmt.Errorf("openmetrics: sample %q is not a legal %s series of family %q", s.Name, f.Type, f.Name)
	}
	return nil
}

// seriesKey identifies one series: name plus sorted labels.
func seriesKey(s *Sample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	ls := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		ls[i] = l.Name + `="` + l.Value + `"`
	}
	sort.Strings(ls)
	return s.Name + "{" + strings.Join(ls, ",") + "}"
}

// checkHistogram validates one histogram family: for every label set
// (ignoring le) the buckets must have strictly increasing le values ending
// in +Inf, nondecreasing cumulative counts, a single _sum and _count, the
// +Inf bucket equal to _count, and sum 0 when count is 0.
func checkHistogram(f *Family) error {
	type group struct {
		les    []float64
		counts []float64
		sum    *float64
		count  *float64
	}
	groups := map[string]*group{}
	order := []string{}
	grp := func(s *Sample, dropLE bool) *group {
		ls := make([]string, 0, len(s.Labels))
		for _, l := range s.Labels {
			if dropLE && l.Name == "le" {
				continue
			}
			ls = append(ls, l.Name+`="`+l.Value+`"`)
		}
		sort.Strings(ls)
		key := strings.Join(ls, ",")
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		return g
	}
	for i := range f.Samples {
		s := &f.Samples[i]
		switch strings.TrimPrefix(s.Name, f.Name) {
		case "_bucket":
			le := s.Label("le")
			if le == "" {
				return fmt.Errorf("openmetrics: histogram %q: bucket without le label", f.Name)
			}
			v, err := parseLE(le)
			if err != nil {
				return fmt.Errorf("openmetrics: histogram %q: %v", f.Name, err)
			}
			g := grp(s, true)
			g.les = append(g.les, v)
			g.counts = append(g.counts, s.Value)
		case "_sum":
			g := grp(s, false)
			if g.sum != nil {
				return fmt.Errorf("openmetrics: histogram %q: duplicate _sum", f.Name)
			}
			v := s.Value
			g.sum = &v
		case "_count":
			g := grp(s, false)
			if g.count != nil {
				return fmt.Errorf("openmetrics: histogram %q: duplicate _count", f.Name)
			}
			v := s.Value
			g.count = &v
		}
	}
	for _, key := range order {
		g := groups[key]
		where := f.Name
		if key != "" {
			where += "{" + key + "}"
		}
		if len(g.les) == 0 {
			return fmt.Errorf("openmetrics: histogram %s: no buckets", where)
		}
		for i := 1; i < len(g.les); i++ {
			if !(g.les[i] > g.les[i-1]) {
				return fmt.Errorf("openmetrics: histogram %s: le values not strictly increasing (%g after %g)",
					where, g.les[i], g.les[i-1])
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("openmetrics: histogram %s: bucket counts not monotonic (%g after %g at le=%g)",
					where, g.counts[i], g.counts[i-1], g.les[i])
			}
		}
		if !math.IsInf(g.les[len(g.les)-1], +1) {
			return fmt.Errorf("openmetrics: histogram %s: missing le=\"+Inf\" bucket", where)
		}
		if g.count == nil || g.sum == nil {
			return fmt.Errorf("openmetrics: histogram %s: missing _sum or _count", where)
		}
		inf := g.counts[len(g.counts)-1]
		if inf != *g.count {
			return fmt.Errorf("openmetrics: histogram %s: le=\"+Inf\" bucket %g != _count %g", where, inf, *g.count)
		}
		if *g.count == 0 && *g.sum != 0 {
			return fmt.Errorf("openmetrics: histogram %s: _count 0 but _sum %g", where, *g.sum)
		}
	}
	return nil
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(+1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) {
		return 0, fmt.Errorf("bad le value %q", s)
	}
	return v, nil
}

// parseMeta reads a `# HELP name text` or `# TYPE name type` line.
func parseMeta(line string) (kind, name, rest string, err error) {
	switch {
	case strings.HasPrefix(line, "# HELP "):
		kind, rest = "HELP", line[len("# HELP "):]
	case strings.HasPrefix(line, "# TYPE "):
		kind, rest = "TYPE", line[len("# TYPE "):]
	default:
		return "", "", "", fmt.Errorf("unrecognized comment line %q (only # HELP, # TYPE, # EOF allowed)", line)
	}
	name, rest, ok := strings.Cut(rest, " ")
	if !ok || name == "" {
		return "", "", "", fmt.Errorf("malformed %s line", kind)
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("illegal metric name %q", name)
	}
	return kind, name, rest, nil
}

// parseSample reads `name value`, `name{labels} value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = line[:nameEnd]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("illegal metric name %q", s.Name)
	}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		var err error
		s.Labels, rest, err = parseLabels(rest)
		if err != nil {
			return s, err
		}
	}
	if len(rest) == 0 || rest[0] != ' ' {
		return s, fmt.Errorf("missing value separator in %q", line)
	}
	valueStr := rest[1:]
	if valueStr == "" || strings.ContainsAny(valueStr, " \t") {
		// A second field would be a timestamp/exemplar; the renderer never
		// emits them, so the strict checker refuses them.
		return s, fmt.Errorf("malformed or extra fields in value %q", valueStr)
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q", valueStr)
	}
	s.Value = v
	return s, nil
}

// parseLabels reads a {name="value",...} block, unescaping values, and
// returns the remainder of the line.
func parseLabels(in string) ([]Label, string, error) {
	var labels []Label
	i := 1 // past '{'
	seen := map[string]bool{}
	for {
		if i >= len(in) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if in[i] == '}' {
			return labels, in[i+1:], nil
		}
		j := strings.IndexByte(in[i:], '=')
		if j < 0 {
			return nil, "", fmt.Errorf("malformed label block %q", in)
		}
		name := in[i : i+j]
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("illegal label name %q", name)
		}
		if seen[name] {
			return nil, "", fmt.Errorf("duplicate label %q", name)
		}
		seen[name] = true
		i += j + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("label %q: unquoted value", name)
		}
		value, next, err := unquoteLabelValue(in[i:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %v", name, err)
		}
		labels = append(labels, Label{Name: name, Value: value})
		i += next
		if i < len(in) && in[i] == ',' {
			i++
		}
	}
}

// unquoteLabelValue reads a quoted label value starting at in[0] == '"',
// applying the three legal escapes (\\ \" \n) and rejecting all others.
// Returns the value and how many input bytes were consumed.
func unquoteLabelValue(in string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(in) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("illegal escape \\%c", in[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// unescapeHelp applies HELP-text escapes (\\ and \n), rejecting others.
func unescapeHelp(in string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		if in[i] != '\\' {
			b.WriteByte(in[i])
			continue
		}
		i++
		if i >= len(in) {
			return "", fmt.Errorf("dangling escape in HELP text")
		}
		switch in[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("illegal HELP escape \\%c", in[i])
		}
	}
	return b.String(), nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// nameInFamily reports whether a sample name can belong to the family under
// any type's suffix rules (the exact rule is enforced later by Validate,
// which knows the final TYPE).
func nameInFamily(name string, f *Family) bool {
	if !strings.HasPrefix(name, f.Name) {
		return false
	}
	switch strings.TrimPrefix(name, f.Name) {
	case "", "_total", "_bucket", "_sum", "_count":
		return true
	}
	return false
}
