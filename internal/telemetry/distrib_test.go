package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSpanName(t *testing.T) {
	cases := []struct {
		proc, stage uint8
		want        string
	}{
		{ProcClient, StageRPC, "client.rpc"},
		{ProcClient, StageFlush, "client.flush"},
		{ProcProxy, StageAdmit, "proxy.admit"},
		{ProcProxy, StageRingWalk, "proxy.ringwalk"},
		{ProcProxy, StageForward, "proxy.forward"},
		{ProcProxy, StageRetry, "proxy.retry"},
		{ProcBackend, StageQueue, "backend.queue"},
		{ProcBackend, StageKernel, "backend.kernel"},
		{9, 42, "proc#9.stage#42"},
	}
	for _, c := range cases {
		if got := SpanName(c.proc, c.stage); got != c.want {
			t.Errorf("SpanName(%d, %d) = %q, want %q", c.proc, c.stage, got, c.want)
		}
	}
}

type chromeEvent struct {
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		Name    string `json:"name"`
		TraceID string `json:"trace_id"`
	} `json:"args"`
}

func TestWriteStitchedTrace(t *testing.T) {
	base := int64(1700000000_000000000)
	spans := []StitchedSpan{
		{TraceID: 0xbeef, Span: SpanRecord{Start: base + 5_000, Dur: 40_000, Proc: ProcBackend, Stage: StageKernel}},
		{TraceID: 0xbeef, Span: SpanRecord{Start: base, Dur: 60_000, Proc: ProcClient, Stage: StageRPC}},
		{TraceID: 0xbeef, Span: SpanRecord{Start: base + 2_000, Dur: 50_000, Proc: ProcProxy, Stage: StageForward}},
		{TraceID: 0xcafe, Span: SpanRecord{Start: base + 9_000, Dur: 10_000, Proc: ProcClient, Stage: StageRPC}},
	}
	var buf bytes.Buffer
	if err := WriteStitchedTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v\n%s", err, buf.String())
	}

	procs := map[int]string{}
	byTrace := map[string][]chromeEvent{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			procs[ev.Pid] = ev.Args.Name
		case "X":
			byTrace[ev.Args.TraceID] = append(byTrace[ev.Args.TraceID], ev)
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if procs[1] != "client" || procs[2] != "proxy" || procs[3] != "backend" {
		t.Fatalf("missing process_name metadata: %v", procs)
	}
	// The stitch criterion the CI gate uses: one trace id covering all
	// three process ids.
	beef := byTrace["0xbeef"]
	if len(beef) != 3 {
		t.Fatalf("trace 0xbeef has %d events, want 3", len(beef))
	}
	pids := map[int]bool{}
	for _, ev := range beef {
		pids[ev.Pid] = true
	}
	if !pids[1] || !pids[2] || !pids[3] {
		t.Fatalf("trace 0xbeef does not span all processes: %v", beef)
	}
	if len(byTrace["0xcafe"]) != 1 {
		t.Fatalf("trace 0xcafe has %d events, want 1", len(byTrace["0xcafe"]))
	}
	// Timestamps are rebased: the earliest span starts at ts 0 and
	// relative order is preserved (client.rpc before backend.kernel).
	for _, ev := range beef {
		if ev.Name == "client.rpc" && ev.Ts != 0 {
			t.Fatalf("earliest span ts = %v, want 0", ev.Ts)
		}
		if ev.Name == "backend.kernel" && ev.Ts != 5 {
			t.Fatalf("kernel span ts = %v µs, want 5", ev.Ts)
		}
		if ev.Name == "proxy.forward" && ev.Dur != 50 {
			t.Fatalf("forward span dur = %v µs, want 50", ev.Dur)
		}
	}
}

func TestWriteStitchedTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteStitchedTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
}
