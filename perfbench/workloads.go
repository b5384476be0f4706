package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rlibm32/internal/server"
)

// clock splits a run into windows. Workers read the current window on
// every request and file what they observe under it; the controller
// advances it and snapshots the process at each edge. Window 0 is the
// warm-up, 1..n are measured, and n+1 means stop. Windows from traced
// on record spans.
type clock struct {
	win    atomic.Int32
	n      int32
	traced int32
}

func (c *clock) stopped(w int32) bool { return w > c.n }
func (c *clock) tracing(w int32) bool { return w >= c.traced && w <= c.n }

// tally is what one worker observed during one window.
type tally struct {
	attempted int64 // requests (or batch calls) completed or failed
	busy      int64 // answered BUSY
	errFrames int64 // answered with any other non-OK status
	transport int64 // failed on the transport
	values    int64 // bit-verified values delivered

	lat durLog // per request: from issue (closed loop) or due time (open loop)
	lag durLog // open loop: issue time minus due time

	// Spans recorded around calls into the client's public functions in
	// traced windows: inside Client.GoTagged, and GoTagged → Done (stage
	// client.rpc in internal/telemetry/distrib.go). The library's span
	// is the batch call, which lat already times.
	issue durLog
	rpc   durLog
}

func (t *tally) failed() int64 { return t.busy + t.errFrames + t.transport }

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.busy += o.busy
	t.errFrames += o.errFrames
	t.transport += o.transport
	t.values += o.values
	t.lat.merge(&o.lat)
	t.lag.merge(&o.lag)
	t.issue.merge(&o.issue)
	t.rpc.merge(&o.rpc)
}

// note files one completed call under t: lat is the request's latency,
// rpc its GoTagged → Done span. It returns the mismatch, if any.
func (t *tally) note(traced bool, f *fn, lo int, call *server.Call, lat, rpc time.Duration) error {
	t.attempted++
	switch {
	case call.Err != nil:
		t.transport++
		return nil
	case call.Status == server.StatusBusy:
		t.busy++
		return nil
	case call.Status != server.StatusOK:
		t.errFrames++
		return nil
	}
	if err := f.check(lo, call.Dst[:len(call.Src)]); err != nil {
		return err
	}
	t.values += int64(len(call.Src))
	t.lat.add(lat)
	if traced {
		t.rpc.add(rpc)
	}
	return nil
}

// durLog is an append-only log of durations, kept as ns in fixed-size
// chunks: it grows without copying, so the benchmark's own bookkeeping
// adds little and steadily to the process's peak RSS.
type durLog struct{ chunks [][]uint32 }

const logChunk = 1 << 12

func (l *durLog) add(d time.Duration) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == logChunk {
		l.chunks = append(l.chunks, make([]uint32, 0, logChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], uint32(min(d.Nanoseconds(), math.MaxUint32)))
}

// merge moves o's chunks into l.
func (l *durLog) merge(o *durLog) { l.chunks = append(l.chunks, o.chunks...) }

// sortedUs returns the logged durations in µs, sorted.
func (l *durLog) sortedUs() []float64 {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	us := make([]float64, 0, n)
	for _, c := range l.chunks {
		for _, ns := range c {
			us = append(us, float64(ns)/1e3)
		}
	}
	sort.Float64s(us)
	return us
}

// workers runs one goroutine per worker function, each filing into its
// own tallies, one per window. The first error cancels the others'
// context.
type workers struct {
	ck   clock
	stop context.CancelFunc
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	ts   [][]tally
}

func (w *workers) start(ctx context.Context, run func(ctx context.Context, ts []tally) error) {
	ts := make([]tally, w.ck.n+2)
	w.ts = append(w.ts, ts)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		if err := run(ctx, ts); err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
			w.stop()
		}
	}()
}

// wait returns once every worker has returned, with the workers'
// tallies merged per window.
func (w *workers) wait() ([]tally, error) {
	w.wg.Wait()
	out := make([]tally, w.ck.n+2)
	for _, ts := range w.ts {
		for i := range ts {
			out[i].add(&ts[i])
		}
	}
	return out, w.err
}

// pick returns the function and input offset of request seq: round
// robin over fns, walking each function's inputs batch by batch.
func pick(fns []*fn, seq, batch int) (*fn, int) {
	f := fns[seq%len(fns)]
	return f, (seq / len(fns) * batch) % len(f.in)
}

// libCaller is the `lib` workload's single caller: the public batch
// APIs (rlibm32.EvalSlice, positmath.EvalSlice) at batch 1024, round
// robin over fns. Each call is timed.
func libCaller(ck *clock, fns []*fn) func(context.Context, []tally) error {
	const batch = 1024
	return func(ctx context.Context, ts []tally) error {
		dst := make([]uint32, batch)
		for seq := 0; ; seq++ {
			win := ck.win.Load()
			if ck.stopped(win) || ctx.Err() != nil {
				return nil
			}
			f, lo := pick(fns, seq, batch)
			start := time.Now()
			err := evalBatch(f, dst, f.in[lo:lo+batch])
			lat := time.Since(start)
			t := &ts[win]
			t.attempted++
			if err != nil {
				t.errFrames++
				continue
			}
			if err := f.check(lo, dst); err != nil {
				return err
			}
			t.values += batch
			t.lat.add(lat)
		}
	}
}

// slot is one in-flight request of a connection driver: its buffer, and
// what was asked and when.
type slot struct {
	f     *fn
	lo    int
	due   time.Time // open loop: when the schedule wanted it sent
	start time.Time // when GoTagged was called
	dst   []uint32
}

// issue sends request (f, lo) from slot si on c, tagged si, and in
// traced windows records the time spent inside GoTagged.
func issue(ck *clock, ts []tally, c *server.Client, done chan *server.Call, slots []slot, si int, f *fn, lo int) {
	sl := &slots[si]
	sl.f, sl.lo = f, lo
	sl.start = time.Now()
	c.GoTagged(f.typ, f.name, sl.dst, f.in[lo:lo+len(sl.dst)], done, uint64(si))
	if win := ck.win.Load(); ck.tracing(win) {
		ts[win].issue.add(time.Since(sl.start))
	}
}

// closedConn drives one connection as a closed loop: depth pipelined
// requests of batch values, round robin over fns; a completion
// immediately reissues its slot. Latency runs from issue.
func closedConn(ck *clock, c *server.Client, fns []*fn, batch, depth, ci int) func(context.Context, []tally) error {
	return func(ctx context.Context, ts []tally) error {
		done := make(chan *server.Call, depth) // one buffer per slot
		slots := make([]slot, depth)
		seq := ci * 7 // de-phase connections across the function list
		next := func(si int) {
			f, lo := pick(fns, seq, batch)
			seq++
			issue(ck, ts, c, done, slots, si, f, lo)
		}
		for si := range slots {
			slots[si].dst = make([]uint32, batch)
			next(si)
		}
		for inflight := depth; inflight > 0; inflight-- {
			call := <-done
			sl := &slots[call.Tag]
			win := ck.win.Load()
			took := time.Since(sl.start)
			if err := ts[win].note(ck.tracing(win), sl.f, sl.lo, call, took, took); err != nil {
				return err
			}
			if call.Err == nil && !ck.stopped(win) && ctx.Err() == nil {
				next(int(call.Tag))
				inflight++
			}
		}
		return nil
	}
}

// openLoop drives conns as one open loop at rate requests/s in total:
// every tick of a fixed schedule sends one request of batch values on
// each connection, whatever the system's response. It returns the
// sender and the receiver, to run as two workers. Latency runs from the
// tick's due time, so a stall also charges the requests queued behind
// it; the sender records its own lateness as lag.
func openLoop(ck *clock, conns []*server.Client, fns []*fn, batch int, rate float64) (send, recv func(context.Context, []tally) error) {
	const nslots = 1024 // far above the in-flight count at the offered rate
	slots := make([]slot, nslots)
	free := make(chan int, nslots)
	done := make(chan *server.Call, nslots)
	for si := range slots {
		slots[si].dst = make([]uint32, batch)
		free <- si
	}
	sent := make(chan int, 1) // the sender's final count; sent once
	send = func(ctx context.Context, ts []tally) error {
		n := 0
		defer func() { sent <- n }()
		period := tickPeriod(rate, len(conns))
		tk, err := newTicker(period)
		if err != nil {
			return err
		}
		defer tk.close()
		for tick, seq := uint64(1), 0; ; {
			due, err := tk.wait()
			if err != nil {
				return err
			}
			for ; tick <= due; tick++ {
				at := tk.t0.Add(time.Duration(tick) * period)
				for _, c := range conns {
					if ck.stopped(ck.win.Load()) || ctx.Err() != nil {
						return nil
					}
					var si int
					select {
					case si = <-free:
					case <-ctx.Done():
						return nil
					}
					f, lo := pick(fns, seq, batch)
					seq++
					slots[si].due = at
					issue(ck, ts, c, done, slots, si, f, lo)
					n++
					ts[ck.win.Load()].lag.add(slots[si].start.Sub(at))
				}
			}
		}
	}
	recv = func(ctx context.Context, ts []tally) error {
		for received, total := 0, -1; total < 0 || received < total; {
			select {
			case call := <-done:
				received++
				sl := &slots[call.Tag]
				now := time.Now()
				win := ck.win.Load()
				if err := ts[win].note(ck.tracing(win), sl.f, sl.lo, call, now.Sub(sl.due), now.Sub(sl.start)); err != nil {
					return err
				}
				free <- int(call.Tag)
			case total = <-sent:
			}
		}
		return nil
	}
	return send, recv
}

// tickPeriod returns the open loop's send interval: one request per
// connection per tick makes rate requests/s in total.
func tickPeriod(rate float64, conns int) time.Duration {
	return time.Duration(float64(conns) / rate * float64(time.Second))
}
