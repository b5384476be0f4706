package server

import (
	"errors"
	"testing"

	"rlibm32/internal/telemetry"
)

// TestTracedRequestRoundTrip checks that a v2 request frame carries its
// trace block through encode→parse unchanged, and that v1 frames keep
// parsing exactly as before (Traced false, no trace fields).
func TestTracedRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 7, Bits: []uint32{0x3f800000},
			Traced: true, TraceID: 0xdeadbeefcafef00d, TraceFlags: 0x1},
		{Op: OpEval, Type: TPosit16, Name: "ln", ID: 1, Bits: []uint32{1, 2, 3},
			Traced: true, TraceID: 1, TraceFlags: 0},
		{Op: OpPing, Traced: true, TraceID: 42, TraceFlags: 7},
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 9, Bits: []uint32{5}}, // v1 control
	}
	for _, req := range cases {
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		if want := uint8(ProtoVersion); req.Traced {
			want = ProtoVersionTraced
			if enc[4] != want {
				t.Errorf("traced frame version byte %d, want %d", enc[4], want)
			}
		} else if enc[4] != want {
			t.Errorf("v1 frame version byte %d, want %d", enc[4], want)
		}
		pr, err := ParseRequest(enc[4:])
		if err != nil {
			t.Fatalf("parse %+v: %v", req, err)
		}
		if pr.Traced != req.Traced || pr.TraceID != req.TraceID || pr.TraceFlags != req.TraceFlags {
			t.Errorf("trace context: got (%v %#x %#x) want (%v %#x %#x)",
				pr.Traced, pr.TraceID, pr.TraceFlags, req.Traced, req.TraceID, req.TraceFlags)
		}
		if pr.Op != req.Op || pr.Type != req.Type || pr.ID != req.ID {
			t.Errorf("header mismatch: got %+v want %+v", pr, req)
		}
		got, err := DecodeRequest(enc[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if got.Traced != req.Traced || got.TraceID != req.TraceID || got.TraceFlags != req.TraceFlags {
			t.Errorf("DecodeRequest trace context: got %+v want %+v", got, req)
		}
	}
}

// TestTracedResponseRoundTrip checks that a v2 response echoes the
// trace block and span records exactly, that the span count saturates
// at the pad byte's capacity, and that the v1 pad-byte advertisement is
// surfaced without disturbing any v1 semantics — the mechanism that
// lets old peers ignore the whole extension.
func TestTracedResponseRoundTrip(t *testing.T) {
	spans := []telemetry.SpanRecord{
		{Start: 1000, Dur: 70, Proc: telemetry.ProcBackend, Stage: telemetry.StageQueue},
		{Start: 1070, Dur: 90, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel},
	}
	resp := &Response{
		Status: StatusOK, Type: TFloat32, ID: 7, Bits: []uint32{0x40000000, 0x3f000000},
		Traced: true, TraceID: 0xbeef, TraceFlags: 3, Spans: spans,
	}
	enc, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(enc[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Traced || got.TraceID != resp.TraceID || got.TraceFlags != resp.TraceFlags {
		t.Errorf("trace context: got %+v want %+v", got, resp)
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

	// Span count saturates at the pad byte's range.
	big := make([]telemetry.SpanRecord, maxFrameSpans+20)
	for i := range big {
		big[i] = telemetry.SpanRecord{Start: int64(i), Proc: telemetry.ProcProxy, Stage: telemetry.StageForward}
	}
	enc, err = AppendResponse(nil, &Response{Status: StatusOK, Traced: true, TraceID: 1, Spans: big})
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

	// A v1 response whose pad byte carries a version advertisement must
	// decode identically to one whose pad byte is zero, advert aside:
	// that byte is invisible to pre-tracing decoders.
	adv := &Response{Status: StatusOK, Type: TFloat32, ID: 3, Advert: MaxProtoVersion, Bits: []uint32{9}}
	enc, err = AppendResponse(nil, adv)
	if err != nil {
		t.Fatal(err)
	}
	if enc[4] != ProtoVersion {
		t.Fatalf("advertising response must stay v1, got version %d", enc[4])
	}
	got, err = DecodeResponse(enc[4:])
	if err != nil {
		t.Fatalf("v1 decoder rejected advertising response: %v", err)
	}
	if got.Traced || got.Advert != MaxProtoVersion || got.Status != StatusOK || got.ID != 3 || len(got.Bits) != 1 {
		t.Errorf("advertising response decoded as %+v", got)
	}
}

// TestTracedFrameErrors checks the malformed-frame edges the trace
// extension adds: truncated trace blocks, span counts that overrun the
// frame, and version bytes beyond what we speak.
func TestTracedFrameErrors(t *testing.T) {
	req, _ := AppendRequest(nil, &Request{
		Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{1},
		Traced: true, TraceID: 5, TraceFlags: 0,
	})
	frame := req[4:]

	reqCases := map[string][]byte{
		"trace block truncated": frame[:reqHeaderLen+TraceBlockLen-3],
		"future version":        mutate(frame, 0, MaxProtoVersion+1),
		"v2 length mismatch":    frame[:len(frame)-1],
	}
	for name, f := range reqCases {
		if _, err := ParseRequest(f); err == nil {
			t.Errorf("%s: ParseRequest accepted malformed frame", name)
		}
	}
	if _, err := ParseRequest(mutate(frame, 0, MaxProtoVersion+1)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("future version: err = %v, want ErrBadVersion", err)
	}

	resp, _ := AppendResponse(nil, &Response{
		Status: StatusOK, Type: TFloat32, ID: 1, Bits: []uint32{2},
		Traced: true, TraceID: 5,
		Spans: []telemetry.SpanRecord{{Start: 1, Dur: 1, Proc: telemetry.ProcBackend, Stage: telemetry.StageKernel}},
	})
	rframe := resp[4:]
	respCases := map[string][]byte{
		"span records truncated": rframe[:len(rframe)-5],
		"span count overruns":    mutate(rframe, 3, 200), // claims 200 spans, frame has 1
		"future version":         mutate(rframe, 0, MaxProtoVersion+1),
	}
	for name, f := range respCases {
		if _, err := DecodeResponse(f); err == nil {
			t.Errorf("%s: DecodeResponse accepted malformed frame", name)
		}
	}
}

// FuzzTracedFrame fuzzes the v2 encode→decode path: arbitrary trace
// ids, flags and span payloads must round-trip exactly, and arbitrary
// mutations of a valid traced frame must never panic the parsers.
func FuzzTracedFrame(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(3), []byte{1, 2, 3}, -1, byte(0))
	f.Add(uint64(0xffffffffffffffff), uint64(7), uint8(0), []byte{}, 0, byte(99))
	f.Add(uint64(0xbeef), uint64(1), uint8(250), []byte{0, 0, 128, 63}, 4, byte(2))
	f.Fuzz(func(t *testing.T, traceID, flags uint64, nspans uint8, payload []byte, mutIdx int, mutVal byte) {
		bits := make([]uint32, len(payload)/4)
		for i := range bits {
			for j := 0; j < 4; j++ {
				bits[i] |= uint32(payload[i*4+j]) << (8 * j)
			}
		}
		spans := make([]telemetry.SpanRecord, int(nspans))
		for i := range spans {
			spans[i] = telemetry.SpanRecord{
				Start: int64(traceID) + int64(i), Dur: int64(flags ^ uint64(i)),
				Proc: uint8(i % 4), Stage: uint8(i % 10),
			}
		}

		req := &Request{Op: OpEval, Type: TFloat32, Name: "exp", ID: 9, Bits: bits,
			Traced: true, TraceID: traceID, TraceFlags: flags}
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode traced request: %v", err)
		}
		pr, err := ParseRequest(enc[4:])
		if err != nil {
			t.Fatalf("parse traced request: %v", err)
		}
		if !pr.Traced || pr.TraceID != traceID || pr.TraceFlags != flags || pr.Count != len(bits) {
			t.Fatalf("request trace context mismatch: %+v", pr)
		}

		resp := &Response{Status: StatusOK, Type: TFloat32, ID: 9, Bits: bits,
			Traced: true, TraceID: traceID, TraceFlags: flags, Spans: spans}
		renc, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode traced response: %v", err)
		}
		rgot, err := DecodeResponse(renc[4:])
		if err != nil {
			t.Fatalf("decode traced response: %v", err)
		}
		if rgot.TraceID != traceID || rgot.TraceFlags != flags || len(rgot.Spans) != len(spans) {
			t.Fatalf("response trace context mismatch: %+v", rgot)
		}
		for i := range spans {
			if rgot.Spans[i] != spans[i] {
				t.Fatalf("span[%d]: got %+v want %+v", i, rgot.Spans[i], spans[i])
			}
		}

		// Mutations must never panic; they may parse or error, nothing else.
		if mutIdx >= 0 {
			if mf := enc[4:]; mutIdx < len(mf) {
				ParseRequest(mutate(mf, mutIdx, mutVal))
			}
			if mf := renc[4:]; mutIdx < len(mf) {
				DecodeResponse(mutate(mf, mutIdx, mutVal))
			}
		}
	})
}

// TestEndToEndTrace drives a traced request through a live server:
// negotiation via the ping advertisement, the trace id echoed on the
// response, and the two backend pipeline spans (queue, kernel)
// stamped with plausible timings — while results stay bit-exact with
// the in-process library.
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

	// Before any response arrives the peer version is unknown, so a
	// traced issue must degrade silently to v1: the call still succeeds
	// but carries no trace context back.
	call := <-c.GoTraced(TFloat32, "exp", dst, in, done, 0, 0x1111, 0).Done
	if call.Err != nil || call.Status != StatusOK {
		t.Fatalf("pre-negotiation call: status %s err %v", StatusText(call.Status), call.Err)
	}
	if call.TraceID != 0 || len(call.Spans) != 0 {
		t.Fatalf("pre-negotiation call carried trace context: id %#x, %d spans", call.TraceID, len(call.Spans))
	}

	// That response's pad byte advertised v2; from here tracing is live.
	if v := c.PeerVersion(); v != MaxProtoVersion {
		t.Fatalf("peer version after first response: %d, want %d", v, MaxProtoVersion)
	}

	const traceID = 0xdecafbad
	call = <-c.GoTraced(TFloat32, "exp", dst, in, done, 0, traceID, 0).Done
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
}
