package server

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/libm"
	"rlibm32/posit16"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

// batchKey identifies one dispatch target: a (representation, function)
// pair.
type batchKey struct {
	typ  uint8
	name string
}

// evalFunc evaluates a batch of raw bit patterns: dst[i] =
// f(src[i]) in the key's representation. len(dst) == len(src).
type evalFunc func(dst, src []uint32)

// evalChunk is the number of values wrapFloat32 converts per kernel
// call (matches the kernels' own internal chunking).
const evalChunk = 256

// Conversion buffers between wire bit patterns and float32. Pooled (not
// stack arrays) because the slices are passed to non-inlinable kernel
// closures and would otherwise escape — heap-allocating two 1 KiB
// arrays per batch.
var f32ConvPool = sync.Pool{New: func() any { return new([2 * evalChunk]float32) }}

// wrapFloat32 adapts an rlibm batch kernel to bit-pattern slices.
func wrapFloat32(f func(dst, xs []float32)) evalFunc {
	return func(dst, src []uint32) {
		conv := f32ConvPool.Get().(*[2 * evalChunk]float32)
		xs, ys := conv[:evalChunk], conv[evalChunk:]
		for off := 0; off < len(src); off += evalChunk {
			n := min(len(src)-off, evalChunk)
			for j := 0; j < n; j++ {
				xs[j] = math.Float32frombits(src[off+j])
			}
			f(ys[:n], xs[:n])
			for j := 0; j < n; j++ {
				dst[off+j] = math.Float32bits(ys[j])
			}
		}
		f32ConvPool.Put(conv)
	}
}

// wrapPosit32 adapts a positmath batch kernel. Posits are their bit
// patterns, so the wire slices are viewed as []posit32.Posit in place.
func wrapPosit32(f func(dst, ps []posit32.Posit)) evalFunc {
	return func(dst, src []uint32) { f(positView(dst), positView(src)) }
}

// positView reinterprets wire bit patterns as posits without copying.
func positView(u []uint32) []posit32.Posit {
	return unsafe.Slice((*posit32.Posit)(unsafe.SliceData(u)), len(u))
}

// wrap16 adapts a scalar 16-bit function. The half-width libraries
// have no slice kernels, so this loop over their scalar functions
// costs about ten times float32's batch path per value.
func wrap16(f func(uint16) uint16) evalFunc {
	return func(dst, src []uint32) {
		for i, b := range src {
			dst[i] = uint32(f(uint16(b)))
		}
	}
}

// buildEvaluators constructs the dispatch table for every generated
// implementation, keyed off the libm registry — no hand-maintained
// function list, so a regenerated library is served automatically.
func buildEvaluators() map[batchKey]evalFunc {
	out := make(map[batchKey]evalFunc)
	for _, e := range libm.Registry() {
		code, ok := TypeCode(e.Variant)
		if !ok {
			continue
		}
		key := batchKey{typ: code, name: e.Name}
		switch e.Variant {
		case libm.VariantFloat32:
			// Route through EvalSlice, not the raw FuncSlice kernel, so
			// the library's batch telemetry (batch-width histogram,
			// kernel-path counters) sees served traffic when rlibmd has
			// called rlibm.EnableTelemetry. The name is registry-validated
			// and wrapFloat32 sizes dst to xs, so the error path is dead.
			if _, ok := rlibm.FuncSlice(e.Name); ok {
				name := e.Name
				out[key] = wrapFloat32(func(dst, xs []float32) {
					_ = rlibm.EvalSlice(name, dst, xs)
				})
			}
		case libm.VariantPosit32:
			if f, ok := positmath.FuncSlice(e.Name); ok {
				out[key] = wrapPosit32(f)
			}
		case libm.VariantBfloat16:
			if f, ok := bfloat16.Func(e.Name); ok {
				out[key] = wrap16(func(b uint16) uint16 { return f(bfloat16.FromBits(b)).Bits() })
			}
		case libm.VariantFloat16:
			if f, ok := float16.Func(e.Name); ok {
				out[key] = wrap16(func(b uint16) uint16 { return f(float16.FromBits(b)).Bits() })
			}
		case libm.VariantPosit16:
			if f, ok := posit16.Func(e.Name); ok {
				out[key] = wrap16(func(b uint16) uint16 { return f(posit16.FromBits(b)).Bits() })
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Pooled request carriers. Steady-state traffic allocates nothing per
// frame: pendings and their source and result buffers recycle through
// one sync.Pool.

// pending is one request's journey through the dispatcher: decoded
// input bits in, result bits out, delivered asynchronously to its
// connection's writer so no goroutine blocks per request.
type pending struct {
	ks    *keyState
	src   []uint32 // input bits
	dst   []uint32 // result bits, valid once delivered with StatusOK
	out   *connWriter
	start time.Time

	// Response fields, valid once delivered.
	id     uint32
	typ    uint8
	status uint8

	// Trace context. The kernel entry and exit stamps are unix ns. The
	// entry stamp is taken only for traced requests (traceID != 0), so
	// the untraced hot path pays one branch and no extra clock read; the
	// exit stamp is the clock read the latency histogram takes anyway.
	traceID uint64
	tKern0  int64
	tKern1  int64
}

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// getPending returns a pending with src and dst sized for count values.
// Both buffers live in one allocation and keep their capacity across
// reuse.
func getPending(count int) *pending {
	p := pendingPool.Get().(*pending)
	if cap(p.src) < count {
		buf := make([]uint32, 2*count)
		p.src, p.dst = buf[:count:count], buf[count:]
	}
	p.src, p.dst = p.src[:count], p.dst[:count]
	return p
}

// release returns the pending, buffers included, to the pool. Call
// exactly once, after the response has been written or discarded.
func (p *pending) release() {
	*p = pending{src: p.src, dst: p.dst}
	pendingPool.Put(p)
}

// ---------------------------------------------------------------------
// Dispatch: one work channel, a fixed pool of workers.

// keyState is the per-(type, function) dispatch descriptor, resolved
// once per request with a single allocation-free map lookup: the
// evaluator and the pre-resolved metrics handles.
type keyState struct {
	key  batchKey
	eval evalFunc
	fm   *funcMetrics
}

// workDepth is the capacity of the work channel. Admission is counted
// in values, not requests; when the channel is full a submitting
// reader blocks, which is TCP backpressure on its connection. Each
// connection holds at most ConnInflight requests, so the default
// depth covers 64 connections pipelining at full depth.
const workDepth = 4096

// dispatcher feeds admitted requests through one buffered channel to a
// fixed pool of workers. Each worker evaluates one request per kernel
// call, into the result buffer pooled with it, and hands it to its
// connection's writer. Requests from one connection run in parallel
// on different workers, as requests from different connections do.
type dispatcher struct {
	byType      [8]map[string]*keyState // wire type code → name → state (alloc-free lookup)
	work        chan *pending
	maxInflight int64 // admission bound (values)
	inflight    atomic.Int64
	m           *Metrics
	wg          sync.WaitGroup
}

func newDispatcher(eval map[batchKey]evalFunc, workers int, maxInflight int64, m *Metrics) *dispatcher {
	d := &dispatcher{
		work:        make(chan *pending, workDepth),
		maxInflight: maxInflight,
		m:           m,
	}
	for k, f := range eval {
		if d.byType[k.typ] == nil {
			d.byType[k.typ] = make(map[string]*keyState)
		}
		d.byType[k.typ][k.name] = &keyState{key: k, eval: f, fm: m.forKey(k)}
	}
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d
}

// lookup resolves a wire (type, name) to its dispatch state without
// allocating (the map index on a converted byte slice takes the
// runtime's no-copy fast path). nil means unknown function/type.
func (d *dispatcher) lookup(typ uint8, name []byte) *keyState {
	if int(typ) >= len(d.byType) || d.byType[typ] == nil {
		return nil
	}
	return d.byType[typ][string(name)]
}

// submit admits p — whose ks, src, id, typ, out and start fields the
// caller has filled — and returns StatusOK, or returns StatusBusy
// without taking ownership when admitting len(p.src) values would
// exceed the inflight bound. On StatusOK the pending is delivered to
// p.out once it has been evaluated; on StatusBusy the caller still
// owns p and responds itself.
func (d *dispatcher) submit(p *pending) uint8 {
	n := int64(len(p.src))
	if d.inflight.Add(n) > d.maxInflight {
		d.inflight.Add(-n)
		d.m.shedValues.Add(uint64(n))
		if p.ks.fm != nil {
			p.ks.fm.Busy.Add(1)
		}
		return StatusBusy
	}
	d.work <- p
	return StatusOK
}

// worker evaluates requests until shutdown closes the work channel.
func (d *dispatcher) worker() {
	defer d.wg.Done()
	for p := range d.work {
		d.run(p)
	}
}

// run makes one request's kernel call and delivers the result. The
// kernel exit is stamped for every request and, for a traced one, the
// entry too, so its response can report backend.queue and
// backend.kernel spans.
func (d *dispatcher) run(p *pending) {
	n := len(p.src)
	if p.traceID != 0 {
		p.tKern0 = time.Now().UnixNano()
	}
	p.ks.eval(p.dst, p.src)
	now := time.Now()
	p.tKern1 = now.UnixNano()
	p.status = StatusOK
	if fm := p.ks.fm; fm != nil {
		fm.lat.ObserveDuration(now.Sub(p.start))
	}
	d.m.Batches.Add(1)
	d.m.BatchedValues.Add(uint64(n))
	d.m.batchSize.Observe(uint64(n))
	p.out.respq <- p // never blocks: the request holds one of the writer's slots
	d.inflight.Add(-int64(n))
}

// shutdown waits for all admitted work to finish, then stops the
// workers. The server guarantees no new submits arrive before calling
// this (connections are drained first), so inflight can only fall;
// once it reaches zero the work channel is empty, making close safe.
func (d *dispatcher) shutdown(ctx context.Context) error {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for d.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	close(d.work)
	d.wg.Wait()
	return nil
}
