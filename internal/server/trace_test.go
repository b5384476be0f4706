package server

import (
	"errors"
	"testing"

	"rlibm32/internal/telemetry"
)

// TestTracedRequestRoundTrip checks that a request frame carries its
// trace id through encode→parse unchanged, with 0 meaning untraced, and
// that every frame goes out at ProtoVersion.
func TestTracedRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 7, Bits: []uint32{0x3f800000}, TraceID: 0xdeadbeefcafef00d},
		{Op: OpEval, Type: TPosit16, Name: "ln", ID: 1, Bits: []uint32{1, 2, 3}, TraceID: 1},
		{Op: OpPing, TraceID: 42},
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 9, Bits: []uint32{5}}, // untraced
	}
	for _, req := range cases {
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		if enc[4] != ProtoVersion {
			t.Errorf("frame version byte %d, want %d", enc[4], ProtoVersion)
		}
		pr, err := ParseRequest(enc[4:])
		if err != nil {
			t.Fatalf("parse %+v: %v", req, err)
		}
		if pr.TraceID != req.TraceID {
			t.Errorf("trace id: got %#x want %#x", pr.TraceID, req.TraceID)
		}
		if pr.Op != req.Op || pr.Type != req.Type || pr.ID != req.ID {
			t.Errorf("header mismatch: got %+v want %+v", pr, req)
		}
	}
}

// TestTracedResponseRoundTrip checks that a response echoes the trace
// id and span records exactly, that the span count saturates at its
// header byte's capacity, and that an untraced response carries no
// spans.
func TestTracedResponseRoundTrip(t *testing.T) {
	spans := []telemetry.SpanRecord{
		{Start: 1000, Dur: 70, Proc: telemetry.ProcBackend, Stage: telemetry.StageQueue},
		{Start: 1070, Dur: 90, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel},
	}
	resp := &Response{
		Status: StatusOK, Type: TFloat32, ID: 7, Bits: []uint32{0x40000000, 0x3f000000},
		TraceID: 0xbeef, Spans: spans,
	}
	enc, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != resp.TraceID {
		t.Errorf("trace id: got %#x want %#x", got.TraceID, resp.TraceID)
	}
	if len(got.Spans) != len(spans) {
		t.Fatalf("spans: got %d want %d", len(got.Spans), len(spans))
	}
	for i, s := range spans {
		if got.Spans[i] != s {
			t.Errorf("span[%d]: got %+v want %+v", i, got.Spans[i], s)
		}
	}
	if got.Status != resp.Status || got.ID != resp.ID || len(got.Bits) != len(resp.Bits) {
		t.Errorf("payload mismatch: got %+v want %+v", got, resp)
	}

	// Span count saturates at its header byte's range.
	big := make([]telemetry.SpanRecord, maxFrameSpans+20)
	for i := range big {
		big[i] = telemetry.SpanRecord{Start: int64(i), Proc: telemetry.ProcProxy, Stage: telemetry.StageForward}
	}
	enc, err = AppendResponse(nil, &Response{Status: StatusOK, TraceID: 1, Spans: big})
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeResponse(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != maxFrameSpans {
		t.Errorf("oversized span list: got %d spans back, want truncation to %d", len(got.Spans), maxFrameSpans)
	}

	enc, err = AppendResponse(nil, &Response{Status: StatusOK, Type: TFloat32, ID: 3, Bits: []uint32{9}})
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeResponse(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || len(got.Spans) != 0 || got.ID != 3 || len(got.Bits) != 1 {
		t.Errorf("untraced response decoded as %+v", got)
	}
}

// TestTracedFrameErrors checks the malformed-frame edges of the trace
// fields: a truncated trace id, span counts that overrun the frame, and
// every version byte other than ProtoVersion — an older build's 1 and
// 2 included — rejected with ErrBadVersion rather than misparsed.
func TestTracedFrameErrors(t *testing.T) {
	req, _ := AppendRequest(nil, &Request{
		Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{1}, TraceID: 5,
	})
	frame := req[4:]

	reqCases := map[string][]byte{
		"trace block truncated": frame[:reqHeaderLen-3],
		"length mismatch":       frame[:len(frame)-1],
	}
	for name, f := range reqCases {
		if _, err := ParseRequest(f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: ParseRequest err = %v, want ErrBadFrame", name, err)
		}
	}

	resp, _ := AppendResponse(nil, &Response{
		Status: StatusOK, Type: TFloat32, ID: 1, Bits: []uint32{2}, TraceID: 5,
		Spans: []telemetry.SpanRecord{{Start: 1, Dur: 1, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel}},
	})
	rframe := resp[4:]
	respCases := map[string][]byte{
		"trace block truncated":  rframe[:respHeaderLen-3],
		"span records truncated": rframe[:len(rframe)-5],
		"span count overruns":    mutate(rframe, 3, 200), // claims 200 spans, frame has 1
	}
	for name, f := range respCases {
		if _, err := DecodeResponse(f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: DecodeResponse err = %v, want ErrBadFrame", name, err)
		}
	}

	for _, ver := range []byte{0, 1, 2, ProtoVersion + 1, 0xff} {
		if _, err := ParseRequest(mutate(frame, 0, ver)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("request version %d: err = %v, want ErrBadVersion", ver, err)
		}
		if _, err := DecodeResponse(mutate(rframe, 0, ver)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("response version %d: err = %v, want ErrBadVersion", ver, err)
		}
	}
}

// FuzzTracedFrame runs checkFrameRoundTrip on a float32 exp eval frame
// over arbitrary trace ids, span counts and payloads: the trace id and
// the span records must round-trip exactly, and one-byte mutations of
// either frame must never panic the parsers. FuzzFrameRoundTrip holds
// the same seeds with the header fields free as well.
func FuzzTracedFrame(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte{1, 2, 3}, -1, byte(0))
	f.Add(uint64(0xffffffffffffffff), uint8(0), []byte{}, 0, byte(99))
	f.Add(uint64(0xbeef), uint8(250), []byte{0, 0, 128, 63}, 4, byte(2))
	f.Fuzz(func(t *testing.T, traceID uint64, nspans uint8, payload []byte, mutIdx int, mutVal byte) {
		checkFrameRoundTrip(t, OpEval, TFloat32, "exp", 9, payload, traceID, nspans, mutIdx, mutVal)
	})
}

// TestEndToEndTrace drives traced requests through a live server: the
// very first call on a fresh connection is traced (no Ping first), the
// trace id is echoed on the response, and the two backend pipeline
// spans (queue, kernel) carry plausible timings — while results stay
// bit-exact with the in-process library. An untraced call on the same
// connection comes back with trace id 0 and no spans.
func TestEndToEndTrace(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in, want := expWorkload(64)
	dst := make([]uint32, len(in))
	done := make(chan *Call, 1)

	const traceID = 0xdecafbad
	call := <-c.GoTraced(TFloat32, "exp", dst, in, done, 0, traceID).Done
	if call.Err != nil || call.Status != StatusOK {
		t.Fatalf("traced call: status %s err %v", StatusText(call.Status), call.Err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("bits[%d]: got %#x want %#x", i, dst[i], want[i])
		}
	}
	if call.TraceID != traceID {
		t.Fatalf("trace id: got %#x want %#x", call.TraceID, traceID)
	}
	if call.IssuedNs == 0 || call.SentNs < call.IssuedNs {
		t.Errorf("client stamps: issued %d sent %d", call.IssuedNs, call.SentNs)
	}
	stages := map[uint8]telemetry.SpanRecord{}
	for _, s := range call.Spans {
		if s.Proc != telemetry.ProcBackend {
			t.Errorf("span %s from proc %d, want backend", telemetry.SpanName(s.Proc, s.Stage), s.Proc)
		}
		stages[s.Stage] = s
	}
	for _, st := range []uint8{telemetry.StageQueue, telemetry.StageKernel} {
		s, ok := stages[st]
		if !ok {
			t.Errorf("missing backend span %s", telemetry.SpanName(telemetry.ProcBackend, st))
			continue
		}
		if s.Start <= 0 || s.Dur < 0 {
			t.Errorf("span %s has implausible timing: start %d dur %d",
				telemetry.SpanName(s.Proc, s.Stage), s.Start, s.Dur)
		}
	}

	call = <-c.GoTagged(TFloat32, "exp", dst, in, done, 0).Done
	if call.Err != nil || call.Status != StatusOK {
		t.Fatalf("untraced call: status %s err %v", StatusText(call.Status), call.Err)
	}
	if call.TraceID != 0 || len(call.Spans) != 0 {
		t.Errorf("untraced call came back with trace id %#x and %d spans", call.TraceID, len(call.Spans))
	}
}
