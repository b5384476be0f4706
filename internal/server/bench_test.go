package server

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"rlibm32/internal/perf"
)

// BenchmarkProtoRoundTrip measures one synchronous request through the
// full stack — client encode, writev, server decode, dispatch,
// kernel, response writev, client decode — with a caller-provided dst,
// the configuration the zero-alloc claim is made for. Allocs/op is the
// number to watch: steady state must stay at 0 on both ends.
func BenchmarkProtoRoundTrip(b *testing.B) {
	_, addr := startServer(b, Config{Workers: 2})
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	in, _ := expWorkload(256)
	dst := make([]uint32, len(in))
	// Warm the pools and arenas out of the measured region.
	for i := 0; i < 100; i++ {
		if _, _, err := c.EvalBits(TFloat32, "exp", dst, in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(in)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, status, err := c.EvalBits(TFloat32, "exp", dst, in)
		if err != nil || status != StatusOK {
			b.Fatalf("status %s err %v", StatusText(status), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(in))*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}

// BenchmarkDispatch measures the dispatcher alone — admission, the
// work channel, worker wakeup, evaluation, delivery — with a trivial
// kernel, so the per-request dispatch overhead is the whole cost.
// Allocs/op must be 0: pendings and their buffers recycle.
func BenchmarkDispatch(b *testing.B) {
	key := batchKey{typ: TFloat32, name: "copy"}
	eval := map[batchKey]evalFunc{key: func(dst, src []uint32) { copy(dst, src) }}
	m := newMetrics([]batchKey{key})
	d := newDispatcher(eval, 4, 1<<20, m)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()
	const batch = 256
	b.ReportAllocs()
	b.SetBytes(batch * 4)
	b.RunParallel(func(pb *testing.PB) {
		ks := d.lookup(TFloat32, []byte("copy"))
		src := make([]uint32, batch)
		for i := range src {
			src[i] = uint32(i)
		}
		w := &connWriter{respq: make(chan *pending, 1)}
		for pb.Next() {
			p := getPending(len(src))
			copy(p.src, src)
			p.ks, p.out, p.start = ks, w, time.Now()
			if st := d.submit(p); st != StatusOK {
				p.release()
				b.Fatalf("submit: %s", StatusText(st))
			}
			(<-w.respq).release()
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}

// TestPerFrameSteadyStateAllocs is the no-alloc gate for the
// per-connection frame path: with GC parked and everything warm, a
// round trip (two frames plus dispatch on the server, two frames on
// the client) must average under one allocation — i.e. the occasional
// pool refill is tolerated, per-frame garbage is not. It runs a
// float32 and a posit32 exp, one per batch path.
func TestPerFrameSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: sync.Pool drops items by design there")
	}
	_, addr := startServer(t, Config{Workers: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f32in, _ := expWorkload(256)
	p32in := make([]uint32, 256)
	for i, p := range perf.PositInputs("exp", len(p32in)) {
		p32in[i] = uint32(p)
	}
	for _, tc := range []struct {
		name string
		typ  uint8
		in   []uint32
	}{
		{"float32", TFloat32, f32in},
		{"posit32", TPosit32, p32in},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]uint32, len(tc.in))
			run := func(n int) {
				for i := 0; i < n; i++ {
					if _, status, err := c.EvalBits(tc.typ, "exp", dst, tc.in); err != nil || status != StatusOK {
						t.Fatalf("status %s err %v", StatusText(status), err)
					}
				}
			}
			run(2000) // grow every arena, pool and map to steady state
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			runtime.GC()
			run(200)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const N = 2000
			run(N)
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / N
			if per >= 1 {
				t.Errorf("steady-state frame path allocates: %.2f mallocs per round trip", per)
			}
			t.Logf("steady state: %.3f mallocs per round trip (%d over %d requests)",
				per, after.Mallocs-before.Mallocs, N)
		})
	}
}
