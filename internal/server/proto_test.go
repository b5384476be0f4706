package server

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"rlibm32/internal/telemetry"
)

func TestFrameRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing},
		{Op: OpEval, Type: TFloat32, Name: "exp", ID: 7, Bits: []uint32{0x3f800000, 0, 0xffffffff}, TraceID: 0xdecaf},
		{Op: OpEval, Type: TPosit32, Name: "ln", ID: 1, Bits: []uint32{0x40000000}},
		{Op: OpEval, Type: TBfloat16, Name: "sinpi", ID: 9, Bits: []uint32{0x3f80, 0xffff}},
		{Op: OpEval, Type: TFloat16, Name: "cosh", ID: 2, Bits: []uint32{}},
		{Op: OpEval, Type: TPosit16, Name: "log10", ID: 3, Bits: []uint32{1, 2, 3, 4, 5}},
	}
	for _, req := range reqs {
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		pr, err := ParseRequest(enc[4:])
		if err != nil {
			t.Fatalf("parse %+v: %v", req, err)
		}
		if pr.Op != req.Op || pr.Type != req.Type || string(pr.Name) != req.Name || pr.ID != req.ID || pr.TraceID != req.TraceID {
			t.Errorf("header mismatch: got %+v want %+v", pr, req)
		}
		if pr.Count != len(req.Bits) {
			t.Fatalf("bits length: got %d want %d", pr.Count, len(req.Bits))
		}
		got := make([]uint32, pr.Count)
		width := TypeWidth(req.Type)
		DecodeValuesInto(got, pr.Payload, width)
		for i := range req.Bits {
			want := req.Bits[i]
			if width == 2 {
				want &= 0xffff
			}
			if got[i] != want {
				t.Errorf("bits[%d]: got %#x want %#x", i, got[i], want)
			}
		}
	}

	resps := []*Response{
		{Status: StatusOK, Type: TFloat32, ID: 7, Bits: []uint32{0x40000000}, TraceID: 0xdecaf},
		{Status: StatusBusy, Type: TFloat32, ID: 8},
		{Status: StatusMalformed},
		{Status: StatusOK, Type: TPosit16, ID: 1, Bits: []uint32{0xabcd, 0x1234}},
	}
	for _, resp := range resps {
		enc, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		got, err := DecodeResponse(enc[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		if got.Status != resp.Status || got.Type != resp.Type || got.ID != resp.ID || got.TraceID != resp.TraceID || len(got.Bits) != len(resp.Bits) {
			t.Errorf("response mismatch: got %+v want %+v", got, resp)
		}
	}

	// Frame sizes: a 16-value float32 exp request is the 4-byte length
	// prefix, the 20-byte header (trace id included), the 3-byte name
	// and 64 bytes of values; its untraced response has no name and no
	// spans.
	req, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: make([]uint32, 16)})
	resp, _ := AppendResponse(nil, &Response{Status: StatusOK, Type: TFloat32, Bits: make([]uint32, 16)})
	if len(req) != 91 || len(resp) != 88 {
		t.Errorf("16-value exp frames: request %d bytes, response %d; want 91 and 88", len(req), len(resp))
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	valid, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{1}})
	frame := valid[4:]

	cases := map[string][]byte{
		"truncated header": frame[:8],
		"bad opcode":       mutate(frame, 1, 77),
		"bad type":         mutate(frame, 2, 200),
		"length mismatch":  frame[:len(frame)-1],
		"ping with body":   mutate(frame, 1, OpPing),
	}
	for name, f := range cases {
		if _, err := ParseRequest(f); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
	for _, ver := range []byte{0, 1, 2, ProtoVersion + 1, 99, 0xff} {
		if _, err := ParseRequest(mutate(frame, 0, ver)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", ver, err)
		}
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := bytes.Clone(b)
	out[i] = v
	return out
}

func TestReadFrameTooLarge(t *testing.T) {
	enc, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: make([]uint32, 100)})
	r := bufio.NewReader(bytes.NewReader(enc))
	if _, _, err := readFrame(r, nil, 64); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversized frame: err = %v, want ErrFrameSize", err)
	}
}

// FuzzFrameRoundTrip checks encode→decode identity for request and
// response frames over arbitrary headers, payloads, trace ids and span
// lists, and that arbitrary one-byte mutations of the encoded frames
// never panic the parsers.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(OpEval), uint8(TFloat32), "exp", uint32(1), []byte{0, 0, 128, 63}, uint64(0), uint8(0), -1, byte(0))
	f.Add(uint8(OpPing), uint8(0), "", uint32(0), []byte{}, uint64(0), uint8(0), -1, byte(0))
	f.Add(uint8(OpEval), uint8(TPosit16), "ln", uint32(9), []byte{1, 2, 3, 4}, uint64(0), uint8(0), -1, byte(0))
	f.Add(uint8(OpEval), uint8(TFloat32), "exp", uint32(9), []byte{1, 2, 3}, uint64(1), uint8(3), -1, byte(0))
	f.Add(uint8(OpEval), uint8(TFloat32), "exp", uint32(9), []byte{}, uint64(0xffffffffffffffff), uint8(0), 0, byte(99))
	f.Add(uint8(OpEval), uint8(TFloat32), "exp", uint32(9), []byte{0, 0, 128, 63}, uint64(0xbeef), uint8(250), 4, byte(2))
	f.Fuzz(checkFrameRoundTrip)
}

// checkFrameRoundTrip is the body of FuzzFrameRoundTrip and
// FuzzTracedFrame: it encodes a request and a response from the
// arguments, requires both to decode to what went in, and parses a
// copy of each with byte mutIdx (when in range) set to mutVal.
func checkFrameRoundTrip(t *testing.T, op, typ uint8, name string, id uint32, payload []byte, traceID uint64, nspans uint8, mutIdx int, mutVal byte) {
	width := TypeWidth(typ)
	if width == 0 {
		width = 4
	}
	bits := make([]uint32, len(payload)/width)
	for i := range bits {
		for j := 0; j < width; j++ {
			bits[i] |= uint32(payload[i*width+j]) << (8 * j)
		}
	}
	req := &Request{Op: op, Type: typ, Name: name, ID: id, Bits: bits, TraceID: traceID}
	enc, err := AppendRequest(nil, req)
	if err != nil {
		return // unencodable input (name too long, unknown type)
	}
	if mutIdx >= 0 && mutIdx < len(enc)-4 {
		ParseRequest(mutate(enc[4:], mutIdx, mutVal)) // must not panic
	}
	pr, err := ParseRequest(enc[4:])
	if err != nil {
		// Encodable but unparsable is fine only for headers the
		// encoder does not validate (bad opcode, ping payloads).
		if op == OpEval && TypeWidth(typ) != 0 {
			t.Fatalf("round trip rejected valid eval frame: %v", err)
		}
		return
	}
	if pr.Op != req.Op || pr.Type != req.Type || pr.ID != req.ID || pr.TraceID != req.TraceID {
		t.Fatalf("header mismatch: got %+v want %+v", pr, req)
	}
	if pr.Op == OpEval {
		if string(pr.Name) != req.Name || pr.Count != len(req.Bits) {
			t.Fatalf("payload mismatch: got %+v want %+v", pr, req)
		}
		got := make([]uint32, pr.Count)
		DecodeValuesInto(got, pr.Payload, TypeWidth(req.Type))
		for i := range req.Bits {
			want := req.Bits[i]
			if TypeWidth(req.Type) == 2 {
				want &= 0xffff
			}
			if got[i] != want {
				t.Fatalf("bits[%d]: got %#x want %#x", i, got[i], want)
			}
		}
	}

	spans := make([]telemetry.SpanRecord, int(nspans))
	for i := range spans {
		spans[i] = telemetry.SpanRecord{
			Start: int64(traceID) + int64(i), Dur: int64(id) ^ int64(i),
			Proc: uint8(i % 4), Stage: uint8(i % 10),
		}
	}
	resp := &Response{Status: op, Type: typ, ID: id, Bits: bits, TraceID: traceID, Spans: spans}
	renc, err := AppendResponse(nil, resp)
	if err != nil {
		return
	}
	if mutIdx >= 0 && mutIdx < len(renc)-4 {
		DecodeResponse(mutate(renc[4:], mutIdx, mutVal)) // must not panic
	}
	rgot, err := DecodeResponse(renc[4:])
	if err != nil {
		t.Fatalf("response round trip rejected: %v", err)
	}
	if rgot.Status != resp.Status || rgot.ID != resp.ID || rgot.TraceID != traceID || len(rgot.Bits) != len(resp.Bits) || len(rgot.Spans) != len(spans) {
		t.Fatalf("response mismatch: got %+v want %+v", rgot, resp)
	}
	for i := range spans {
		if rgot.Spans[i] != spans[i] {
			t.Fatalf("span[%d]: got %+v want %+v", i, rgot.Spans[i], spans[i])
		}
	}
}

// FuzzServerDecode feeds arbitrary bytes to a live connection handler
// and requires that the server never panics and that everything it
// sends back is a well-formed response frame, after which the
// connection closes cleanly.
func FuzzServerDecode(f *testing.F) {
	valid, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{0x3f800000}})
	ping, _ := AppendRequest(nil, &Request{Op: OpPing})
	traced, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", Bits: []uint32{0x3f800000}, TraceID: 7})
	f.Add(valid)
	f.Add(ping)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(traced)
	f.Add(mutate(valid, 4, 1)) // an older build's version byte

	s := New(Config{MaxFrame: 1 << 12, Workers: 2, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go s.Serve(ln)
	addr := ln.Addr().String()

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed (listener gone?)")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		go func() {
			conn.Write(data)
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}()
		br := bufio.NewReader(conn)
		var scratch []byte
		for {
			frame, buf, err := readFrame(br, scratch, DefaultMaxFrame)
			scratch = buf
			if err != nil {
				// Any read error counts as the connection closing
				// (FIN vs RST is a race the server cannot control —
				// its close may discard queued responses). The
				// properties under test are "no panic" and "every
				// frame that does arrive is well-formed".
				return
			}
			if _, err := DecodeResponse(frame); err != nil {
				t.Fatalf("server sent malformed response: %v", err)
			}
		}
	})
}
