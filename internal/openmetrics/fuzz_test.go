package openmetrics

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// render writes families back out in the exposition format, the inverse of
// Parse: metadata first, then the samples, the three legal escapes applied.
func render(fams []Family) []byte {
	help := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	value := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP " + f.Name + " " + help.Replace(f.Help) + "\n")
		if f.Type != "" {
			b.WriteString("# TYPE " + f.Name + " " + f.Type + "\n")
		}
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name + `="` + value.Replace(l.Value) + `"`)
				}
				b.WriteByte('}')
			}
			b.WriteString(" " + strconv.FormatFloat(s.Value, 'g', -1, 64) + "\n")
		}
	}
	b.WriteString("# EOF\n")
	return []byte(b.String())
}

func sameFamilies(a, b []Family) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type || a[i].Help != b[i].Help ||
			len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j := range a[i].Samples {
			x, y := &a[i].Samples[j], &b[i].Samples[j]
			if x.Name != y.Name || len(x.Labels) != len(y.Labels) ||
				(x.Value != y.Value && !(math.IsNaN(x.Value) && math.IsNaN(y.Value))) {
				return false
			}
			for k := range x.Labels {
				if x.Labels[k] != y.Labels[k] {
					return false
				}
			}
		}
	}
	return true
}

// FuzzOpenMetricsParse throws arbitrary bytes at the checker that sits behind
// `hermesctl check prom` and `hermesctl top`'s scrape loop. It must never panic;
// Validate accepts only what Parse accepts; and what parses, written back out,
// parses to the same families and draws the same verdict from Validate.
func FuzzOpenMetricsParse(f *testing.F) {
	f.Add([]byte(valid))
	f.Add([]byte("# HELP m help with \\\\ slash and \\n newline\n# TYPE m gauge\n" +
		"m{path=\"C:\\\\tmp\\\\x\",msg=\"said \\\"hi\\\"\\nbye\",name=\"héllo→世界\"} 1\n# EOF\n"))
	f.Add([]byte("# TYPE a gauge\n# HELP b x\na 1\n# EOF\n"))
	f.Add([]byte("# HELP a \n# TYPE a unknown\na{x=\"1\"y=\"2\"} +Inf\n# EOF\n"))
	for _, tc := range rejectCases {
		f.Add([]byte(tc.src))
	}
	// The renderer's golden: every instrument kind as the proxy exposes it.
	if golden, err := os.ReadFile("../telemetry/testdata/golden.prom"); err == nil {
		f.Add(golden)
	} else {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, perr := Parse(data)
		_, verr := Validate(data)
		if perr != nil {
			if verr == nil {
				t.Fatalf("Validate accepted what Parse refused: %v", perr)
			}
			return
		}
		out := render(fams)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("rendered families do not parse: %v\n%s", err, out)
		}
		if !sameFamilies(fams, back) {
			t.Fatalf("round trip changed the families:\n %+v\n %+v\n%s", fams, back, out)
		}
		if _, err := Validate(out); (err == nil) != (verr == nil) {
			t.Fatalf("Validate: %v on the input, %v on its rendering\n%s", verr, err, out)
		}
	})
}
