package openmetrics

import (
	"strings"
	"testing"
)

const valid = `# HELP hermes_requests total requests
# TYPE hermes_requests counter
hermes_requests_total 42
# HELP hermes_open open connections
# TYPE hermes_open gauge
hermes_open -3
# HELP hermes_lat latency
# TYPE hermes_lat histogram
hermes_lat_bucket{le="1000"} 1
hermes_lat_bucket{le="2000"} 3
hermes_lat_bucket{le="+Inf"} 5
hermes_lat_sum 15500
hermes_lat_count 5
# EOF
`

func TestValidateAccepts(t *testing.T) {
	fams, err := Validate([]byte(valid))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("families = %d, want 3", len(fams))
	}
	if fams[0].Name != "hermes_requests" || fams[0].Type != "counter" || fams[0].Help != "total requests" {
		t.Errorf("family 0 = %+v", fams[0])
	}
	if s := fams[2].Sample("hermes_lat_count"); s == nil || s.Value != 5 {
		t.Errorf("_count = %+v", s)
	}
}

// TestLabelEscaping round-trips backslashes, quotes, newlines and non-ASCII
// UTF-8 through quoted label values.
func TestLabelEscaping(t *testing.T) {
	src := `# HELP m help with \\ slash and \n newline
# TYPE m gauge
m{path="C:\\tmp\\x",msg="said \"hi\"\nbye",name="héllo→世界"} 1
# EOF
`
	fams, err := Validate([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if fams[0].Help != "help with \\ slash and \n newline" {
		t.Errorf("help unescape = %q", fams[0].Help)
	}
	s := &fams[0].Samples[0]
	if got := s.Label("path"); got != `C:\tmp\x` {
		t.Errorf("path = %q", got)
	}
	if got := s.Label("msg"); got != "said \"hi\"\nbye" {
		t.Errorf("msg = %q", got)
	}
	if got := s.Label("name"); got != "héllo→世界" {
		t.Errorf("utf8 = %q", got)
	}
}

// rejectCases are expositions Validate must refuse, with a word its error
// must carry ("" = any error). FuzzOpenMetricsParse seeds from them too.
var rejectCases = []struct {
	name, src, wantErr string
}{
	{"missing EOF",
		"# HELP a b\n# TYPE a gauge\na 1\n", "# EOF"},
	{"missing TYPE",
		"# HELP a b\na 1\n# EOF\n", "TYPE"},
	{"missing HELP",
		"# TYPE a gauge\na 1\n# EOF\n", "HELP"},
	{"counter without _total",
		"# HELP a b\n# TYPE a counter\na 1\n# EOF\n", "legal counter"},
	{"gauge with _total",
		"# HELP a b\n# TYPE a gauge\na_total 1\n# EOF\n", "legal gauge"},
	{"histogram stray suffix",
		"# HELP a b\n# TYPE a histogram\na_quantile 1\n# EOF\n", "outside its family"},
	{"bucket le not increasing",
		"# HELP a b\n# TYPE a histogram\na_bucket{le=\"2\"} 1\na_bucket{le=\"1\"} 2\na_bucket{le=\"+Inf\"} 3\na_sum 1\na_count 3\n# EOF\n", "increasing"},
	{"bucket counts decreasing",
		"# HELP a b\n# TYPE a histogram\na_bucket{le=\"1\"} 5\na_bucket{le=\"+Inf\"} 3\na_sum 1\na_count 3\n# EOF\n", "monoton"},
	{"missing +Inf bucket",
		"# HELP a b\n# TYPE a histogram\na_bucket{le=\"1\"} 1\na_sum 1\na_count 1\n# EOF\n", "+Inf"},
	{"+Inf != count",
		"# HELP a b\n# TYPE a histogram\na_bucket{le=\"+Inf\"} 4\na_sum 1\na_count 5\n# EOF\n", "_count"},
	{"zero count nonzero sum",
		"# HELP a b\n# TYPE a histogram\na_bucket{le=\"+Inf\"} 0\na_sum 9\na_count 0\n# EOF\n", "_sum"},
	{"negative counter",
		"# HELP a b\n# TYPE a counter\na_total -1\n# EOF\n", "negative"},
	{"NaN value",
		"# HELP a b\n# TYPE a gauge\na NaN\n# EOF\n", "NaN"},
	{"duplicate series",
		"# HELP a b\n# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n# EOF\n", "duplicate"},
	{"bad metric name",
		"# HELP 0a b\n# TYPE 0a gauge\n0a 1\n# EOF\n", "name"},
	{"reserved label",
		"# HELP a b\n# TYPE a gauge\na{__name__=\"x\"} 1\n# EOF\n", "label"},
	{"unterminated label value",
		"# HELP a b\n# TYPE a gauge\na{x=\"1} 1\n# EOF\n", ""},
	{"bad escape in label",
		"# HELP a b\n# TYPE a gauge\na{x=\"\\t\"} 1\n# EOF\n", "escape"},
	{"invalid utf8",
		"# HELP a b\n# TYPE a gauge\na{x=\"\xff\"} 1\n# EOF\n", "UTF-8"},
	{"empty line",
		"# HELP a b\n# TYPE a gauge\n\na 1\n# EOF\n", "empty"},
	{"interleaved families",
		"# HELP a b\n# TYPE a gauge\na 1\n# HELP c d\n# TYPE c gauge\nc 1\na 2\n# EOF\n", ""},
	{"text after EOF",
		"# HELP a b\n# TYPE a gauge\na 1\n# EOF\nextra\n", "EOF"},
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range rejectCases {
		_, err := Validate([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestHistogramPerLabelset: bucket discipline is enforced per label group,
// so two labelled histograms in one family validate independently.
func TestHistogramPerLabelset(t *testing.T) {
	src := `# HELP h help
# TYPE h histogram
h_bucket{slot="0",le="1"} 1
h_bucket{slot="0",le="+Inf"} 2
h_sum{slot="0"} 3
h_count{slot="0"} 2
h_bucket{slot="1",le="1"} 0
h_bucket{slot="1",le="+Inf"} 0
h_sum{slot="1"} 0
h_count{slot="1"} 0
# EOF
`
	if _, err := Validate([]byte(src)); err != nil {
		t.Fatalf("per-labelset histograms rejected: %v", err)
	}
	// Break one group only: slot 1's +Inf disagrees with its _count.
	broken := strings.Replace(src, "h_count{slot=\"1\"} 0", "h_count{slot=\"1\"} 7", 1)
	if _, err := Validate([]byte(broken)); err == nil {
		t.Fatal("mismatched per-labelset count accepted")
	}
}

func TestParseIsLenientOnlyAboutMetadataOrder(t *testing.T) {
	// TYPE before HELP still parses (and validates) — ordering within the
	// preamble is free, but both must precede samples.
	src := "# TYPE a gauge\n# HELP a b\na 1\n# EOF\n"
	if _, err := Validate([]byte(src)); err != nil {
		t.Fatalf("TYPE-first preamble rejected: %v", err)
	}
	// Metadata after a sample of the same family is a violation.
	late := "# TYPE a gauge\na 1\n# HELP a b\n# EOF\n"
	if _, err := Parse([]byte(late)); err == nil {
		t.Fatal("late HELP accepted")
	}
}
