package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hermes/internal/tracing"
)

// -demo runs on the one lifecycle: its admin API answers while the clients
// run, every request is counted after the drain, and -trace writes the span
// dump whatever the path is called.
func TestDemoServesAdminAndDump(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "demo.json")
	pr, pw := io.Pipe()
	t.Cleanup(func() { pr.Close() }) // unblocks run if the test ends early
	code := make(chan int, 1)
	go func() {
		defer pw.Close()
		code <- run([]string{"-demo", "-admin", "127.0.0.1:0", "-trace", dump}, pw, io.Discard)
	}()
	// run blocks on its next write to stdout until this test reads it, so
	// the admin API stays up while /healthz is asked.
	lines := bufio.NewScanner(pr)
	var admin string
	for lines.Scan() {
		if a, ok := strings.CutPrefix(lines.Text(), "hermes-lb: admin API on "); ok {
			admin = a
		}
		if strings.Contains(lines.Text(), "workers proxying") {
			break
		}
	}
	if admin == "" {
		t.Fatal("-demo -admin announced no admin API")
	}
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + admin + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz during the demo: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz during the demo: %d, want 200", resp.StatusCode)
	}

	var rest strings.Builder
	for lines.Scan() {
		rest.WriteString(lines.Text() + "\n")
	}
	if c := <-code; c != 0 {
		t.Fatalf("run exited %d:\n%s", c, rest.String())
	}
	if !strings.Contains(rest.String(), "requests: 2000 ok, 0 failed") {
		t.Errorf("demo tally missing:\n%s", rest.String())
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if spans, _, err := tracing.ReadSpans(f); err != nil || len(spans) == 0 {
		t.Errorf("-trace %s: %d spans, err %v; want a span dump", dump, len(spans), err)
	}
}
