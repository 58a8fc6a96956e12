package tracing

import (
	"bytes"
	"reflect"
	"testing"
)

// emitFromBytes drives the recording handles with data as the program: four
// bytes per call, clock strictly advancing. Whatever the recorder can be made
// to emit this way is what both writers must carry.
func emitFromBytes(tr *Tracer, data []byte) {
	var now int64
	k, sched, fault, px := tr.KernelTrace(), tr.ScheduleTrace(), tr.FaultTrace(), tr.ProxyTrace()
	maps := tr.MapTrace(func() int64 { return now })
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0], int64(data[1]), int64(data[2]), data[3]
		now += a*1000 + b + 1
		w := tr.WorkerTrace(int(c % 8))
		conn, flag := uint64(c%16)+1, c&0x80 != 0
		switch op % 11 {
		case 0:
			k.ConnEstablished(conn, now, int32(c%8), Via(b%5))
		case 1:
			k.ConnDropped(now, Via(b%5), flag)
		case 2:
			w.Accept(conn, now-b, now)
		case 3:
			w.Serve(conn, now-a-b, now-b, now, flag)
		case 4:
			w.Close(conn, now, flag)
		case 5:
			w.Wakeup(now-b, now, int(a%4), flag)
		case 6:
			sched.Pass(int(c%8), now, int(a), int(b))
		case 7:
			maps.Sync(int(a % 65))
		case 8:
			fault.Event(int32(c%9)-1, now, a, b)
		case 9:
			px.Probe(int(a), now-b, now, flag)
		case 10:
			px.BackendState(int(a), now, b)
		}
	}
	tr.Flush()
}

// FuzzReadSpans covers the dump reader behind `hermesctl check spans` and
// `hermesctl spans` from both sides. As hostile input, the bytes must draw an
// error or a dump, never a panic, and a dump that parsed must survive a
// rewrite unchanged. As a recording, the same bytes drive the handle API, and
// what was recorded must come back from WriteJSONL exactly, while its Chrome
// rendering must be written without error and refused by the reader.
func FuzzReadSpans(f *testing.F) {
	tr := New(DefaultConfig())
	emitFromBytes(tr, []byte("\x00\x01\x02\x03\x02\x01\x05\x03\x03\x02\x07\x03\x03\x01\x01\x83\x04\x01\x01\x03"+
		"\x01\x00\x09\x80\x05\x02\x30\x02\x05\x00\x10\x81\x06\x03\x04\x01\x07\x05\x00\x00\x08\x07\x00\x00\x08\x02\x09\x04\x09\x01\x20\x80\x0a\x01\x02\x00"))
	var jsonl, chrome bytes.Buffer
	meta := MetaFor("cellA", tr.Stats())
	if err := WriteJSONL(&jsonl, tr.Spans(), meta); err != nil {
		f.Fatal(err)
	}
	if err := WriteChrome(&chrome, tr.Spans(), meta); err != nil {
		f.Fatal(err)
	}
	f.Add(jsonl.Bytes())
	f.Add(chrome.Bytes())
	const head = `{"hermes_spans":1}` + "\n"
	for _, seed := range []string{
		"",
		"\n\n",
		"not a dump\n",
		`{"hermes_spans":2}` + "\n",
		`{"hermes_spans":1,"cell":"x"}` + "\n" + `{"conn":1,"worker":0,"kind":"nope","start_ns":1,"end_ns":2}` + "\n",
		head + `{"conn":-1,"kind":"syn"}` + "\n",
		head + `{"conn":1,"kind":"syn"` + "\n",
		head, // a dump of nothing is a dump
		head + "\n  \n" + `{"conn":1,"worker":-1,"kind":"syn","start_ns":5,"end_ns":5,"arg":2,"arg2":3}` + "\n\n",
		head + `{"conn":1,"worker":1e300,"kind":"serve","start_ns":1,"end_ns":2}` + "\n",
		head + `{"conn":18446744073709551615,"worker":-2147483648,"kind":"fault","start_ns":-9223372036854775808,"end_ns":9223372036854775807,"arg":-1,"arg2":1}` + "\n",
		head + `{"kind":"epoll_wait","worker":3,"start_ns":1.5}` + "\n",
		head + `[]` + "\n",
		`{"hermes_spans":1,"cell":"\ud800","conns_seen":-1}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if spans, meta, err := ReadSpans(bytes.NewReader(data)); err == nil {
			carried(t, spans, meta)
		}

		tr := New(Config{MaxSpans: 1 << 12})
		emitFromBytes(tr, data)
		spans, meta := tr.Spans(), MetaFor("fuzz", tr.Stats())
		carried(t, spans, meta)
		var chrome bytes.Buffer
		if err := WriteChrome(&chrome, spans, meta); err != nil {
			t.Fatalf("Chrome: write: %v", err)
		}
		if _, _, err := ReadSpans(&chrome); err == nil {
			t.Fatal("ReadSpans took a Chrome rendering for a dump")
		}
	})
}

// carried writes spans as JSONL, reads them back and requires the same header
// and the same spans in the same order.
func carried(t *testing.T, spans []Span, meta Meta) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans, meta); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, gotMeta, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v\n%s", err, buf.Bytes())
	}
	if gotMeta != meta || len(got) != len(spans) || (len(spans) > 0 && !reflect.DeepEqual(got, spans)) {
		t.Fatalf("round trip:\n got %+v %+v\nwant %+v %+v", gotMeta, got, meta, spans)
	}
}
