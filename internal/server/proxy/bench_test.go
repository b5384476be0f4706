package proxy

import (
	"testing"

	"rlibm32/internal/server"
)

// BenchmarkProxyRoundTrip16 measures one 16-value float32 frame through
// client → proxy → rlibmd, all in this process on loopback, with 16
// frames in flight on one downstream connection. One op is one frame,
// so ns/op is ns per frame and allocs/op counts every allocation the
// three tiers make per frame.
func BenchmarkProxyRoundTrip16(b *testing.B) {
	backend, _ := startBackend(b, "")
	_, paddr := startProxy(b, Config{Backends: []string{backend}})
	c, err := server.Dial(paddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	in, _ := expVec(16)
	const depth = 16
	done := make(chan *server.Call, depth)
	dsts := make([][]uint32, depth)
	for i := range dsts {
		dsts[i] = make([]uint32, len(in))
	}
	run := func(frames int) {
		issued, inflight := 0, 0
		for ; inflight < depth && issued < frames; issued++ {
			c.GoTagged(server.TFloat32, "exp", dsts[inflight], in, done, uint64(inflight))
			inflight++
		}
		for inflight > 0 {
			call := <-done
			inflight--
			if call.Err != nil || call.Status != server.StatusOK {
				b.Fatalf("status %s err %v", server.StatusText(call.Status), call.Err)
			}
			if issued < frames {
				c.GoTagged(server.TFloat32, "exp", dsts[call.Tag], in, done, call.Tag)
				issued++
				inflight++
			}
		}
	}
	run(2000) // dial the backend pool and warm every pool and buffer
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
