package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlibm32/internal/libm"
	"rlibm32/internal/perf"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// startServer launches an in-process server on a loopback port and
// returns it with its address and a cleanup-registered shutdown.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return s, ln.Addr().String()
}

func TestPingAndErrorStatuses(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 2})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, status, err := c.EvalBits(TFloat32, "nope", nil, []uint32{1}); err != nil || status != StatusUnknownFunc {
		t.Errorf("unknown func: status %s err %v", StatusText(status), err)
	}
	// sinpi exists for float32 but not posit32 — the registry split
	// must be visible through the wire.
	if _, status, err := c.EvalBits(TPosit32, "sinpi", nil, []uint32{1}); err != nil || status != StatusUnknownFunc {
		t.Errorf("posit32 sinpi: status %s err %v", StatusText(status), err)
	}
	if _, status, err := c.EvalBits(TFloat32, "exp", nil, nil); err != nil || status != StatusOK {
		t.Errorf("empty eval: status %s err %v", StatusText(status), err)
	}
}

func TestMalformedFrameClosesConnection(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 2})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// A frame that decodes as a request header but lies about its
	// payload length.
	conn.Write([]byte{8, 0, 0, 0, ProtoVersion, OpEval, TFloat32, 0, 0, 0, 0, 0})
	br := bufio.NewReader(conn)
	frame, _, err := readFrame(br, nil, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("expected an error frame before close: %v", err)
	}
	resp, err := DecodeResponse(frame)
	if err != nil {
		t.Fatalf("error frame malformed: %v", err)
	}
	if resp.Status != StatusMalformed {
		t.Errorf("status = %s, want MALFORMED", StatusText(resp.Status))
	}
	if _, _, err := readFrame(br, nil, DefaultMaxFrame); err == nil {
		t.Error("connection stayed open after malformed frame")
	}
	if got := s.Metrics().Malformed.Load(); got != 1 {
		t.Errorf("malformed counter = %d, want 1", got)
	}
}

// TestForeignVersionRejected pins the one-version rule on live peers:
// rlibmd answers a request frame carrying any version byte other than
// ProtoVersion — an older build's 1 or 2 included — with MALFORMED and
// closes the connection, and the client reader fails a response frame
// carrying one with ErrBadVersion.
func TestForeignVersionRejected(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 2})
	valid, _ := AppendRequest(nil, &Request{Op: OpEval, Type: TFloat32, Name: "exp", ID: 5, Bits: []uint32{1}})
	for i, ver := range []byte{1, 2, ProtoVersion + 1, 0xff} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		frame := append([]byte(nil), valid...)
		frame[4] = ver
		conn.Write(frame)
		br := bufio.NewReader(conn)
		body, _, err := readFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("version %d: expected an error frame before close: %v", ver, err)
		}
		if resp, err := DecodeResponse(body); err != nil || resp.Status != StatusMalformed {
			t.Errorf("version %d: response %+v, err %v; want MALFORMED", ver, resp, err)
		}
		if _, _, err := readFrame(br, nil, DefaultMaxFrame); err == nil {
			t.Errorf("version %d: connection stayed open", ver)
		}
		conn.Close()
		if got := s.Metrics().Malformed.Load(); got != uint64(i+1) {
			t.Errorf("version %d: malformed counter = %d, want %d", ver, got, i+1)
		}
	}

	for _, ver := range []byte{1, 2, ProtoVersion + 1} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := AppendResponse(nil, &Response{Status: StatusOK, Type: TFloat32, ID: 1, Bits: []uint32{2}})
		resp[4] = ver
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			go io.Copy(io.Discard, conn)
			conn.Write(resp)
			time.Sleep(100 * time.Millisecond)
		}()
		c, err := DialTimeout(ln.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		call := <-c.GoTagged(TFloat32, "exp", nil, []uint32{1}, nil, 0).Done
		if !errors.Is(call.Err, ErrBadVersion) {
			t.Errorf("client reader, version %d: err = %v, want ErrBadVersion", ver, call.Err)
		}
		c.Close()
		ln.Close()
	}
}

func TestBusyShedding(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1, MaxInflight: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A batch larger than MaxInflight is always shed, deterministically.
	_, status, err := c.EvalBits(TFloat32, "exp", nil, make([]uint32, 8))
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusBusy {
		t.Fatalf("oversized batch: status %s, want BUSY", StatusText(status))
	}
	// The server stays healthy and serves small batches afterwards.
	bits, status, err := c.EvalBits(TFloat32, "exp", nil, []uint32{math.Float32bits(1)})
	if err != nil || status != StatusOK {
		t.Fatalf("post-shed request: status %s err %v", StatusText(status), err)
	}
	if got, want := math.Float32frombits(bits[0]), rlibm.Exp(1); got != want {
		t.Errorf("post-shed exp(1) = %v, want %v", got, want)
	}
	if s.Metrics().ErrFrames.Load() == 0 {
		t.Error("busy shed not counted in error frames")
	}
}

// TestSoakConcurrentBitExact is the soak test: N goroutine clients
// hammer mixed functions and representations concurrently (run it
// under -race), asserting every returned bit pattern agrees with the
// direct in-process library call.
func TestSoakConcurrentBitExact(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 4, MaxInflight: 1 << 18})

	type job struct {
		typ  uint8
		name string
		in   []uint32
		want []uint32
	}
	var jobs []job
	for _, name := range rlibm.Names() {
		f, _ := rlibm.Func(name)
		xs := perf.Float32Inputs(name, 512)
		j := job{typ: TFloat32, name: name, in: make([]uint32, len(xs)), want: make([]uint32, len(xs))}
		for i, x := range xs {
			j.in[i] = math.Float32bits(x)
			j.want[i] = math.Float32bits(f(x))
		}
		jobs = append(jobs, j)
	}
	for _, name := range positmath.Names() {
		f, _ := positmath.Func(name)
		ps := perf.PositInputs(name, 512)
		j := job{typ: TPosit32, name: name, in: make([]uint32, len(ps)), want: make([]uint32, len(ps))}
		for i, p := range ps {
			j.in[i] = uint32(p)
			j.want[i] = uint32(f(p))
		}
		jobs = append(jobs, j)
	}
	// One 16-bit representation exercises the scalar dispatch path.
	for _, e := range libm.Registry() {
		if e.Variant != libm.VariantFloat16 || e.Name != "exp2" {
			continue
		}
		j := job{typ: TFloat16, name: e.Name, in: make([]uint32, 2048), want: make([]uint32, 2048)}
		ev := buildEvaluators()[batchKey{typ: TFloat16, name: e.Name}]
		for i := range j.in {
			j.in[i] = uint32(i * 31)
		}
		ev(j.want, j.in)
		jobs = append(jobs, j)
	}

	const clients = 8
	const reqsPerClient = 150
	var busy, mismatches atomic.Uint64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			for r := 0; r < reqsPerClient; r++ {
				j := jobs[rng.Intn(len(jobs))]
				lo := rng.Intn(len(j.in))
				hi := lo + 1 + rng.Intn(256)
				if hi > len(j.in) {
					hi = len(j.in)
				}
				got, status, err := c.EvalBits(j.typ, j.name, nil, j.in[lo:hi])
				if err != nil {
					t.Errorf("client %d: %v", ci, err)
					return
				}
				if status == StatusBusy {
					busy.Add(1)
					continue
				}
				if status != StatusOK {
					t.Errorf("client %d: status %s", ci, StatusText(status))
					return
				}
				for i := range got {
					if got[i] != j.want[lo+i] {
						mismatches.Add(1)
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d bit mismatches against direct library calls", n)
	}
	m := s.Metrics()
	if m.Requests.Load() == 0 || m.Batches.Load() == 0 {
		t.Error("metrics recorded no traffic")
	}
	t.Logf("soak: %d requests, %d batches, %.1f values/batch, busy=%d",
		m.Requests.Load(), m.Batches.Load(),
		float64(m.BatchedValues.Load())/float64(m.Batches.Load()), busy.Load())
}

// TestShutdownDrainsInflight checks graceful drain: requests in flight
// when Shutdown is called still complete with correct results, and
// Shutdown returns once they have.
func TestShutdownDrainsInflight(t *testing.T) {
	s := New(Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	addr := ln.Addr().String()

	exp, _ := rlibm.Func("exp")
	want := math.Float32bits(exp(1))
	const clients = 6
	var ok, drained atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			<-start
			in := make([]uint32, 4096)
			for i := range in {
				in[i] = math.Float32bits(1)
			}
			for r := 0; ; r++ {
				got, status, err := c.EvalBits(TFloat32, "exp", nil, in)
				if err != nil || status == StatusShutdown {
					// Connection drained out from under us — fine,
					// as long as completed requests were correct.
					drained.Add(1)
					return
				}
				if status != StatusOK {
					continue
				}
				for i := range got {
					if got[i] != want {
						t.Errorf("mismatch during drain: %#x want %#x", got[i], want)
						return
					}
				}
				ok.Add(1)
			}
		}()
	}
	close(start)
	time.Sleep(50 * time.Millisecond) // let traffic build
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if err := <-serveDone; err != ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}
	if ok.Load() == 0 {
		t.Error("no requests completed before drain")
	}
	// New connections must be refused after shutdown.
	if c, err := Dial(addr); err == nil {
		if err := c.Ping(); err == nil {
			t.Error("server accepted traffic after Shutdown")
		}
		c.Close()
	}
	t.Logf("drain: %d ok requests, %d clients saw the drain", ok.Load(), drained.Load())
}

// TestWorkersEvaluateOneConnectionInParallel pins the property the
// worker pool exists for: two requests submitted back to back from one
// goroutine, as one connection's reader submits its pipelined frames,
// are both inside the kernel at once, on two workers. A design that
// evaluated in the reader would hold the second behind the first.
func TestWorkersEvaluateOneConnectionInParallel(t *testing.T) {
	key := batchKey{typ: TFloat32, name: "gate"}
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	eval := map[batchKey]evalFunc{key: func(dst, src []uint32) {
		entered <- struct{}{}
		<-gate
		copy(dst, src)
	}}
	m := newMetrics([]batchKey{key})
	d := newDispatcher(eval, 2, 1<<20, m)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.shutdown(ctx); err != nil {
			t.Errorf("dispatcher shutdown: %v", err)
		}
	}()

	w := &connWriter{respq: make(chan *pending, 2)}
	ks := d.lookup(TFloat32, []byte("gate"))
	go func() {
		for id := uint32(1); id <= 2; id++ {
			p := getPending(1)
			p.src[0] = 100 + id
			p.ks, p.out, p.start, p.id = ks, w, time.Now(), id
			if st := d.submit(p); st != StatusOK {
				t.Errorf("submit %d: status %s", id, StatusText(st))
			}
		}
	}()
	timeout := time.After(5 * time.Second)
	for n := 0; n < 2; n++ {
		select {
		case <-entered:
		case <-timeout:
			close(gate)
			t.Fatalf("%d of 2 requests inside the kernel before the gate opened, want 2", n)
		}
	}
	close(gate)
	for n := 0; n < 2; n++ {
		p := <-w.respq
		if p.status != StatusOK || len(p.dst) != 1 || p.dst[0] != 100+p.id {
			t.Errorf("request %d: status %s, result %v", p.id, StatusText(p.status), p.dst)
		}
		p.release()
	}
	if got := m.Batches.Load(); got != 2 {
		t.Errorf("kernel calls = %d, want 2 (one per request)", got)
	}
	if got := m.BatchedValues.Load(); got != 2 {
		t.Errorf("values = %d, want 2", got)
	}
}
