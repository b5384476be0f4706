package proxy

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rlibm "rlibm32"
	"rlibm32/internal/libm"
	"rlibm32/internal/perf"
	"rlibm32/internal/server"
	"rlibm32/internal/telemetry"
)

// startBackend runs a real rlibmd server. addr "" picks a free port;
// a concrete addr is re-bound with retries, so a test can restart a
// killed backend on the same address the ring knows. stop(true) is the
// kill -9 analogue: listener and every connection close immediately.
func startBackend(t testing.TB, addr string) (string, func(hard bool)) {
	t.Helper()
	s := server.New(server.Config{Workers: 2})
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	var once sync.Once
	stop := func(hard bool) {
		once.Do(func() {
			ctx := context.Background()
			var cancel context.CancelFunc
			if hard {
				ctx, cancel = context.WithCancel(ctx)
				cancel() // expired before Shutdown looks: immediate hard close
			} else {
				ctx, cancel = context.WithTimeout(ctx, 10*time.Second)
			}
			defer cancel()
			s.Shutdown(ctx)
			<-done
		})
	}
	t.Cleanup(func() { stop(false) })
	// Don't hand the address out until the server answers: a test that
	// kills the backend immediately must be killing a *running* one.
	got := ln.Addr().String()
	for {
		c, err := server.DialTimeout(got, time.Second)
		if err == nil {
			err = c.Ping()
			c.Close()
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %s never became ready: %v", got, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return got, stop
}

// startProxy runs a Proxy on a free port with test-friendly fast
// probe/hysteresis settings unless the config overrides them.
func startProxy(t testing.TB, cfg Config) (*Proxy, string) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 2
	}
	if cfg.OkAfter == 0 {
		cfg.OkAfter = 2
	}
	if cfg.PassiveFailAfter == 0 {
		cfg.PassiveFailAfter = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Shutdown(ctx); err != nil {
			t.Errorf("proxy shutdown: %v", err)
		}
		if err := <-done; err != server.ErrServerClosed {
			t.Errorf("proxy Serve returned %v, want ErrServerClosed", err)
		}
	})
	return p, ln.Addr().String()
}

// expVec is the float32 exp workload with in-process expected bits.
func expVec(n int) (in, want []uint32) {
	w := float32Workloads(n, "exp")
	return w[0].in, w[0].want
}

type vecWorkload struct {
	name     string
	in, want []uint32
}

// float32Workloads precomputes input and expected-output bits for the
// named float32 functions (all registered ones when names is empty) —
// several routing keys, so fleet tests exercise every ring position.
func float32Workloads(n int, names ...string) []vecWorkload {
	if len(names) == 0 {
		names = libm.Names(libm.VariantFloat32)
	}
	out := make([]vecWorkload, 0, len(names))
	for _, name := range names {
		f, ok := rlibm.Func(name)
		if !ok {
			continue
		}
		w := vecWorkload{name: name, in: make([]uint32, n), want: make([]uint32, n)}
		for i, x := range perf.Float32Inputs(name, n) {
			w.in[i] = math.Float32bits(x)
			w.want[i] = math.Float32bits(f(x))
		}
		out = append(out, w)
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRingOwnershipStable pins the two ring basics: ownership is a
// pure function of the key, and vnode placement spreads keys so no
// backend owns a degenerate share.
func TestRingOwnershipStable(t *testing.T) {
	addrs := []string{"a:1", "b:1", "c:1", "d:1"}
	r := buildRing(addrs, defaultVNodes)
	const keys = 2000
	counts := make([]int, len(addrs))
	for i := 0; i < keys; i++ {
		h := hashKey(uint8(1+i%5), fmt.Sprintf("fn%d", i))
		o := r.owner(h)
		if o2 := r.owner(h); o2 != o {
			t.Fatalf("key %d: owner flapped %d -> %d", i, o, o2)
		}
		counts[o]++
	}
	for i, c := range counts {
		// A perfectly even split is keys/4; demand at least a quarter
		// of that so gross vnode skew fails loudly without making the
		// test a statistics referee.
		if c < keys/len(addrs)/4 {
			t.Errorf("backend %d owns %d of %d keys: ring badly skewed %v", i, c, keys, counts)
		}
	}
}

// TestPickMinimalDisruption pins the health-mask invariant the whole
// failover design rests on: ejecting a backend reroutes only the keys
// that backend owned, and re-admission restores exactly the original
// ownership — no unrelated key ever moves.
func TestPickMinimalDisruption(t *testing.T) {
	p, err := New(Config{Backends: []string{"a:1", "b:1", "c:1", "d:1"}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 800
	hashes := make([]uint64, keys)
	base := make([]*backend, keys)
	for i := range hashes {
		hashes[i] = hashKey(1, fmt.Sprintf("k%d", i))
		base[i] = p.pick(hashes[i], 0)
		if base[i] == nil {
			t.Fatalf("key %d: no backend picked", i)
		}
	}
	ej := p.backends[1]
	ej.healthy.Store(false)
	moved := 0
	for i := range hashes {
		got := p.pick(hashes[i], 0)
		if base[i] == ej {
			if got == ej {
				t.Fatalf("key %d still routed to ejected backend", i)
			}
			moved++
			continue
		}
		if got != base[i] {
			t.Errorf("key %d moved from %s to %s though only %s was ejected",
				i, base[i].addr, got.addr, ej.addr)
		}
	}
	if moved == 0 {
		t.Fatal("ejected backend owned no keys; test vacuous")
	}
	ej.healthy.Store(true)
	for i := range hashes {
		if got := p.pick(hashes[i], 0); got != base[i] {
			t.Errorf("key %d not restored after re-admission: %s, want %s",
				i, got.addr, base[i].addr)
		}
	}

	// The tried mask must exclude already-attempted replicas.
	for i := 0; i < 50; i++ {
		first := p.pick(hashes[i], 0)
		second := p.pick(hashes[i], 1<<uint(first.idx))
		if second == first {
			t.Fatalf("key %d: retry picked the already-tried backend", i)
		}
	}
}

// TestProxyEndToEnd drives verified traffic through proxy -> two
// backends and checks bit-exactness against the in-process library,
// plus the local verdict paths (ping, unknown function, empty batch).
func TestProxyEndToEnd(t *testing.T) {
	a1, _ := startBackend(t, "")
	a2, _ := startBackend(t, "")
	_, paddr := startProxy(t, Config{Backends: []string{a1, a2}})

	c, err := server.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping through proxy: %v", err)
	}

	in, want := expVec(4096)
	got, status, err := c.EvalBits(server.TFloat32, "exp", nil, in)
	if err != nil || status != server.StatusOK {
		t.Fatalf("eval: status=%d err=%v", status, err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bit mismatch at %d: in=%#08x got=%#08x want=%#08x", i, in[i], got[i], want[i])
		}
	}

	// Every registered (type, function) routes and answers OK — the
	// whole registry is reachable through the ring, not just the keys
	// that happen to hash to backend one.
	for _, e := range libm.Registry() {
		code, ok := server.TypeCode(e.Variant)
		if !ok {
			continue
		}
		_, status, err := c.EvalBits(code, e.Name, nil, []uint32{0, 1, 2, 3})
		if err != nil || status != server.StatusOK {
			t.Fatalf("eval %s/%s: status=%d err=%v", e.Variant, e.Name, status, err)
		}
	}

	if _, status, err = c.EvalBits(server.TFloat32, "nosuchfn", nil, []uint32{1}); err != nil || status != server.StatusUnknownFunc {
		t.Errorf("unknown func: status=%d err=%v, want UNKNOWN_FUNC", status, err)
	}
	if _, status, err = c.EvalBits(server.TFloat32, "exp", nil, nil); err != nil || status != server.StatusOK {
		t.Errorf("empty batch: status=%d err=%v, want OK", status, err)
	}
}

// TestProxyPipelinedConcurrency floods one downstream connection with
// concurrent async calls (several functions, both widths) and checks
// every response lands under its own id with its own bits.
func TestProxyPipelinedConcurrency(t *testing.T) {
	a1, _ := startBackend(t, "")
	a2, _ := startBackend(t, "")
	_, paddr := startProxy(t, Config{Backends: []string{a1, a2}})

	c, err := server.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in, want := expVec(2048)
	const depth = 32
	const rounds = 40
	const batch = 64
	done := make(chan *server.Call, depth)
	type slot struct {
		lo  int
		dst []uint32
	}
	slots := make([]slot, depth)
	issue := func(si, seq int) {
		lo := (seq * batch) % (len(in) - batch)
		sl := &slots[si]
		sl.lo = lo
		if sl.dst == nil {
			sl.dst = make([]uint32, batch)
		}
		c.GoTagged(server.TFloat32, "exp", sl.dst, in[lo:lo+batch], done, uint64(si))
	}
	seq := 0
	for si := 0; si < depth; si++ {
		issue(si, seq)
		seq++
	}
	for completed := 0; completed < depth*rounds; completed++ {
		call := <-done
		if call.Err != nil {
			t.Fatalf("call error: %v", call.Err)
		}
		if call.Status != server.StatusOK {
			t.Fatalf("status %d", call.Status)
		}
		si := int(call.Tag)
		sl := &slots[si]
		if &call.Dst[0] != &sl.dst[0] {
			t.Fatal("response decoded into a different slot's buffer")
		}
		for j := range call.Dst {
			if call.Dst[j] != want[sl.lo+j] {
				t.Fatalf("slot %d: mismatch at %d: got=%#08x want=%#08x", si, j, call.Dst[j], want[sl.lo+j])
			}
		}
		if seq < depth*rounds {
			issue(si, seq)
			seq++
		}
	}
}

// TestProxyLatencyAlwaysObserved pins always-on timing: after N
// untraced requests through the proxy, the downstream latency
// histogram has observed N, the per-backend histograms sum to N, and
// the flight ring holds one response event per request.
func TestProxyLatencyAlwaysObserved(t *testing.T) {
	a1, _ := startBackend(t, "")
	a2, _ := startBackend(t, "")
	p, paddr := startProxy(t, Config{Backends: []string{a1, a2}})
	c, err := server.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	works := float32Workloads(16) // every float32 key: both backends forward
	const n = 64
	for i := 0; i < n; i++ {
		w := &works[i%len(works)]
		if _, status, err := c.EvalBits(server.TFloat32, w.name, nil, w.in); err != nil || status != server.StatusOK {
			t.Fatalf("request %d: status %s err %v", i, server.StatusText(status), err)
		}
	}
	if got := p.m.Lat.Count(); got != n {
		t.Errorf("rlibmproxy_request_latency_ns count = %d, want %d", got, n)
	}
	var perBackend uint64
	for _, bk := range p.backends {
		perBackend += bk.m.Lat.Count()
	}
	if perBackend != n {
		t.Errorf("per-backend latency counts sum to %d, want %d", perBackend, n)
	}
	responses := 0
	for _, ev := range p.Flight().Snapshot() {
		if ev.Kind == telemetry.EvResponse {
			responses++
		}
	}
	if responses != n {
		t.Errorf("flight ring holds %d response events, want %d", responses, n)
	}
}

// TestProxyChaosSoak is the tentpole's acceptance test in miniature:
// verified pipelined traffic flows through the proxy while one of two
// backends is hard-killed and later restarted on the same address.
// The bar: zero bit mismatches, zero downstream transport errors, a
// bounded BUSY fraction, and automatic ejection + re-admission with no
// operator action.
func TestProxyChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	a1, stop1 := startBackend(t, "")
	a2, _ := startBackend(t, "")
	p, paddr := startProxy(t, Config{Backends: []string{a1, a2}})

	works := float32Workloads(2048) // every float32 function: keys on both ring halves
	const batch = 128
	stopLoad := make(chan struct{})
	var oks, busy, transport, errFrames, mismatches atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(paddr)
			if err != nil {
				transport.Add(1)
				return
			}
			defer c.Close()
			dst := make([]uint32, batch)
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				w := &works[(g+i)%len(works)]
				lo := (g*977 + i*batch) % (len(w.in) - batch)
				got, status, err := c.EvalBits(server.TFloat32, w.name, dst, w.in[lo:lo+batch])
				if err != nil {
					transport.Add(1)
					return
				}
				switch status {
				case server.StatusOK:
					oks.Add(1)
					for j := range got {
						if got[j] != w.want[lo+j] {
							mismatches.Add(1)
						}
					}
				case server.StatusBusy:
					busy.Add(1)
				default:
					errFrames.Add(1)
				}
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	stop1(true) // kill -9: listener and conns drop mid-load
	waitFor(t, 5*time.Second, "ejection of killed backend",
		func() bool { return !p.backends[0].healthy.Load() })
	time.Sleep(300 * time.Millisecond) // soak in degraded mode

	startBackend(t, a1) // restart on the address the ring knows
	waitFor(t, 5*time.Second, "re-admission of restarted backend",
		func() bool { return p.backends[0].healthy.Load() })
	time.Sleep(300 * time.Millisecond) // soak in recovered mode

	close(stopLoad)
	wg.Wait()

	if n := mismatches.Load(); n != 0 {
		t.Errorf("bit mismatches through chaos: %d, want 0", n)
	}
	if n := transport.Load(); n != 0 {
		t.Errorf("downstream transport errors: %d, want 0 (the proxy must absorb backend death)", n)
	}
	if n := errFrames.Load(); n != 0 {
		t.Errorf("non-BUSY error frames: %d, want 0", n)
	}
	if oks.Load() == 0 {
		t.Fatal("no successful requests during the soak")
	}
	if b, o := busy.Load(), oks.Load(); b > o {
		t.Errorf("client-visible BUSY rate unbounded: %d busy vs %d ok", b, o)
	}
	bk := p.backends[0]
	if bk.m.Ejections.Load() == 0 {
		t.Error("killed backend was never ejected")
	}
	if bk.m.Readmissions.Load() == 0 {
		t.Error("restarted backend was never re-admitted")
	}
	// Every backend that owns at least one workload key carried
	// traffic (the survivor necessarily did during the outage).
	for _, w := range works {
		bk := p.pick(hashKey(server.TFloat32, w.name), 0)
		if bk.m.Values.Load() == 0 {
			t.Errorf("backend %s owns key %s but saw no traffic", bk.addr, w.name)
		}
	}
	t.Logf("soak: ok=%d busy=%d ejections=%d readmissions=%d retries=%d failovers=%d",
		oks.Load(), busy.Load(), bk.m.Ejections.Load(), bk.m.Readmissions.Load(),
		p.m.Retries.Load(), p.m.Failovers.Load())
}

// TestProxySingleBackendDown pins the no-backend path: with the only
// backend dead, evals shed with BUSY (never hang, never close the
// downstream conn), and pings still answer OK — the proxy itself is
// alive even when the fleet is not.
func TestProxySingleBackendDown(t *testing.T) {
	a1, stop1 := startBackend(t, "")
	p, paddr := startProxy(t, Config{Backends: []string{a1}})
	waitFor(t, 5*time.Second, "initial health",
		func() bool { return p.backends[0].healthy.Load() })
	stop1(true)
	waitFor(t, 5*time.Second, "ejection",
		func() bool { return !p.backends[0].healthy.Load() })

	c, err := server.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Errorf("ping with dead fleet: %v, want OK (proxy is alive)", err)
	}
	in, _ := expVec(64)
	_, status, err := c.EvalBits(server.TFloat32, "exp", nil, in)
	if err != nil {
		t.Fatalf("eval with dead fleet: transport error %v, want BUSY frame", err)
	}
	if status != server.StatusBusy {
		t.Errorf("eval with dead fleet: status %d, want BUSY", status)
	}
}
