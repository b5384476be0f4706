package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"sort"
	"time"

	"rlibm32/internal/server"

	rlibm "rlibm32"
)

// The layer-alone passes run in the same process right after a
// workload's traced window, so their figures share that run's noise.
// Each one times a layer's public functions with nothing above it.

// probeFunc names the function of the frame every layer-alone pass
// prices: a 16-value float32 request, as in proxy-small.
const probeFunc = "exp"

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// timeNs returns the median over reps of the mean ns per call of f,
// each rep making n calls.
func timeNs(reps, n int, f func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// libmPass prices the kernels through the public APIs: the batch
// EvalSlice of float32 and posit32 per value at batch 1024, the scalar
// Func of the 16-bit types (which have no batch API), and the float32
// scalar Func. It returns the cost of one probe frame's worth of
// float32 exp.
func libmPass(out map[string]float64, fns []*fn) (probeFrameNs float64, err error) {
	const batch, reps = 1024, 5
	perType := map[uint8][]float64{}
	dst := make([]uint32, batch)
	var sink uint32
	for _, f := range fns {
		var ns float64
		switch f.typ {
		case server.TFloat32, server.TPosit32:
			nb := len(f.in) / batch
			i := 0
			var err error
			ns = timeNs(reps, nb, func() {
				err = evalBatch(f, dst, f.in[(i%nb)*batch:][:batch])
				i++
			}) / batch
			if err != nil {
				return 0, fmt.Errorf("libm pass: %w", err)
			}
			if f.typ == server.TFloat32 {
				out["libm.batch_ns_per_value.float32."+f.name] = ns
			}
		default:
			ref, err := scalarRef(f.typ, f.name)
			if err != nil {
				return 0, err
			}
			ns = timeNs(reps, 1, func() {
				for _, b := range f.in {
					sink += ref(b)
				}
			}) / float64(len(f.in))
		}
		perType[f.typ] = append(perType[f.typ], ns)
	}
	for typ, nss := range perType {
		sum := 0.0
		for _, ns := range nss {
			sum += ns
		}
		out["libm.batch_ns_per_value."+server.TypeVariant(typ)] = sum / float64(len(nss))
	}

	var scalar []float64
	for _, f := range fns {
		if f.typ != server.TFloat32 {
			continue
		}
		g, _ := rlibm.Func(f.name)
		xs := f32s(f.in)
		scalar = append(scalar, timeNs(reps, 1, func() {
			for _, x := range xs {
				sink += uint32(g(x))
			}
		})/float64(len(xs)))
	}
	sum := 0.0
	for _, ns := range scalar {
		sum += ns
	}
	out["libm.scalar_ns_per_value.float32"] = sum / float64(len(scalar))
	sinkU32 = sink

	xs := f32s(probeInputs())
	return timeNs(reps, 20000, func() { rlibm.ExpSlice(f32s(dst[:len(xs)]), xs) }), nil
}

var sinkU32 uint32

// probeInputs is the probe frame's 16 float32 inputs.
func probeInputs() []uint32 {
	in := make([]uint32, 16)
	for i := range in {
		in[i] = 0x3f800000 + uint32(i)*0x10001 // values near 1.0
	}
	return in
}

// protoPass prices the exported wire functions alone at the workloads'
// frame sizes, and counts the allocations of one request/response
// round of them.
func protoPass(out map[string]float64) error {
	const reps = 5
	for _, n := range []int{16, 256} {
		sfx := fmt.Sprintf(".b%d", n)
		bits := make([]uint32, n)
		req := &server.Request{ID: 7, Op: server.OpEval, Type: server.TFloat32, Name: probeFunc, Bits: bits}
		resp := &server.Response{ID: 7, Status: server.StatusOK, Type: server.TFloat32, Bits: bits}
		reqBuf, err := server.AppendRequest(nil, req)
		if err != nil {
			return fmt.Errorf("proto pass: %w", err)
		}
		respBuf, err := server.AppendResponse(nil, resp)
		if err != nil {
			return fmt.Errorf("proto pass: %w", err)
		}
		iters := 200000 / n * 16
		if iters > 200000 {
			iters = 200000
		}
		var perr error
		out["server.proto.append_request_ns"+sfx] = timeNs(reps, iters, func() { reqBuf, perr = server.AppendRequest(reqBuf[:0], req) })
		out["server.proto.parse_request_ns"+sfx] = timeNs(reps, iters, func() { _, perr = server.ParseRequest(reqBuf[4:]) })
		out["server.proto.append_response_ns"+sfx] = timeNs(reps, iters, func() { respBuf, perr = server.AppendResponse(respBuf[:0], resp) })
		out["server.proto.decode_response_ns"+sfx] = timeNs(reps, iters, func() { _, perr = server.DecodeResponse(respBuf[4:]) })
		if perr != nil {
			return fmt.Errorf("proto pass: %w", perr)
		}
		if n == 16 {
			const rounds = 10000
			before := heapAllocs()
			for i := 0; i < rounds; i++ {
				reqBuf, _ = server.AppendRequest(reqBuf[:0], req)
				server.ParseRequest(reqBuf[4:])
				respBuf, _ = server.AppendResponse(respBuf[:0], resp)
				server.DecodeResponse(respBuf[4:])
			}
			out["server.proto.allocs_per_frame"] = float64(heapAllocs()-before) / rounds
		}
	}
	return nil
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// loopbackPass measures the benchmark's own length-prefixed echo over
// 127.0.0.1 at the b16 and b256 request frame sizes: the floor of any
// round trip through a tier.
func loopbackPass(out map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback pass: %w", err)
	}
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		ln.Close()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := io.ReadFull(c, buf[:4]); err != nil {
				echoed <- nil // the client closed
				return
			}
			n := 4 + int(binary.LittleEndian.Uint32(buf))
			if _, err := io.ReadFull(c, buf[4:n]); err != nil {
				echoed <- err
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-echoed
		return fmt.Errorf("loopback pass: %w", err)
	}
	for _, n := range []int{16, 256} {
		req := &server.Request{ID: 1, Op: server.OpEval, Type: server.TFloat32, Name: probeFunc, Bits: make([]uint32, n)}
		frame, _ := server.AppendRequest(nil, req)
		back := make([]byte, len(frame))
		rtts := make([]float64, 0, 3000)
		for i := 0; i < cap(rtts)+200; i++ {
			start := time.Now()
			if _, err = c.Write(frame); err != nil {
				break
			}
			if _, err = io.ReadFull(c, back); err != nil {
				break
			}
			if i >= 200 { // the first round trips warm the path up
				rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		if err != nil {
			break
		}
		out[fmt.Sprintf("loopback.echo_rtt_us.b%d", n)] = median(rtts)
	}
	c.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	if err != nil {
		return fmt.Errorf("loopback pass: %w", err)
	}
	return nil
}

// probePass sends the same probe frame, one at a time, alternately
// straight to an idle rlibmd and through an idle rlibmproxy in front of
// it, and checks every result. The direct round trip is server.rtt_us;
// the difference is the proxy hop.
func probePass(out map[string]float64) error {
	st, err := startStack(1, true, 1)
	if err != nil {
		return fmt.Errorf("probe pass: %w", err)
	}
	defer st.close()
	direct, err := server.Dial(st.backends[0])
	if err != nil {
		return fmt.Errorf("probe pass: %w", err)
	}
	defer direct.Close()
	proxied := st.conns[0]

	in := probeInputs()
	f := &fn{typ: server.TFloat32, name: probeFunc, in: in, want: make([]uint32, len(in))}
	ref, _ := scalarRef(f.typ, f.name)
	for i, b := range in {
		f.want[i] = ref(b)
	}
	dst := make([]uint32, len(in))
	const warm, n = 200, 3000
	var d, p []float64
	for i := 0; i < warm+n; i++ {
		for _, c := range []*server.Client{direct, proxied} {
			start := time.Now()
			got, status, err := c.EvalBits(f.typ, f.name, dst, in)
			us := float64(time.Since(start).Nanoseconds()) / 1e3
			if err != nil || status != server.StatusOK {
				return fmt.Errorf("probe pass: status %s, err %v", server.StatusText(status), err)
			}
			if err := f.check(0, got); err != nil {
				return err
			}
			if i < warm {
				continue
			}
			if c == direct {
				d = append(d, us)
			} else {
				p = append(p, us)
			}
		}
	}
	sort.Float64s(d)
	sort.Float64s(p)
	out["server.rtt_us.p50"] = quantile(d, 0.50)
	out["server.rtt_us.p99"] = quantile(d, 0.99)
	out["proxy.hop_us.p50"] = quantile(p, 0.50) - quantile(d, 0.50)
	out["proxy.hop_us.p99"] = quantile(p, 0.99) - quantile(d, 0.99)
	return nil
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// layerInputs returns the inputs the libm pass prices: 16 batches per
// 32-bit function and 4096 patterns per 16-bit function, all five types.
func layerInputs(seed int64) ([]*fn, error) {
	wide, err := buildInputs(keys("float32", "posit32"), 16*1024, seed)
	if err != nil {
		return nil, err
	}
	narrow, err := buildInputs(keys("bfloat16", "float16", "posit16"), 4096, seed)
	if err != nil {
		return nil, err
	}
	return append(wide, narrow...), nil
}
