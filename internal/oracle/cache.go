// Concurrent sharded memoization of oracle results.
//
// The generator's counterexample loop re-validates the same sample
// every outer round, and the Ziv ladder (microseconds per input)
// dominates that cost. The cache below makes every repeat evaluation a
// map lookup. It is sharded to keep lock contention negligible under
// GOMAXPROCS worker pools, and stores results as raw bit patterns (4
// or 8 bytes per entry).
package oracle

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"rlibm32/internal/bigfp"
	"rlibm32/internal/interval"
	"rlibm32/posit32"
)

const numShards = 64

// ckey identifies one oracle evaluation: the function and the exact
// input bit pattern (distinct NaN payloads and ±0 get distinct slots,
// which is harmless).
type ckey struct {
	f    bigfp.Func
	bits uint64
}

func shardOf(f bigfp.Func, bits uint64) uint64 {
	h := (bits ^ uint64(f)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	return h >> 58 // top 6 bits -> [0, 64)
}

type shard32 struct {
	mu sync.RWMutex
	m  map[ckey]uint32
}

type shard64 struct {
	mu sync.RWMutex
	m  map[ckey]uint64
}

// tkey extends ckey with the target name for the generic Target cache
// (the 16-bit exhaustive checks).
type tkey struct {
	name string
	f    bigfp.Func
	bits uint64
}

type tval struct {
	v  float64
	ok bool
}

type shardT struct {
	mu sync.RWMutex
	m  map[tkey]tval
}

var (
	f32Shards [numShards]shard32 // float32 results as IEEE bits
	f64Shards [numShards]shard64 // float64 results as IEEE bits
	p32Shards [numShards]shard32 // posit32 results as posit bits
	tgtShards [numShards]shardT  // generic target results

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
)

// CacheStats reports cache effectiveness. Misses counts uncached
// evaluations: after a bulk fill it equals the number of distinct
// (function, input) pairs — the "oracle runs once per (func, input)"
// guarantee the counting test asserts.
type CacheStats struct {
	Hits, Misses uint64
}

// Stats returns the cumulative hit/miss counters.
func Stats() CacheStats {
	return CacheStats{Hits: cacheHits.Load(), Misses: cacheMisses.Load()}
}

// ResetCache drops every memoized result and zeroes the counters
// (tests and benchmarks use it to measure the uncached path; long-lived
// processes can use it to bound memory).
func ResetCache() {
	for i := range f32Shards {
		s := &f32Shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
	for i := range f64Shards {
		s := &f64Shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
	for i := range p32Shards {
		s := &p32Shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
	for i := range tgtShards {
		s := &tgtShards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
	cacheHits.Store(0)
	cacheMisses.Store(0)
	resetZiv()
}

func cachedFloat32(f bigfp.Func, x float64) float32 {
	bits := math.Float64bits(x)
	s := &f32Shards[shardOf(f, bits)]
	k := ckey{f, bits}
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		cacheHits.Add(1)
		return math.Float32frombits(v)
	}
	cacheMisses.Add(1)
	y := float32Uncached(f, x)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[ckey]uint32)
	}
	s.m[k] = math.Float32bits(y)
	s.mu.Unlock()
	return y
}

func cachedFloat64(f bigfp.Func, x float64) float64 {
	bits := math.Float64bits(x)
	s := &f64Shards[shardOf(f, bits)]
	k := ckey{f, bits}
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		cacheHits.Add(1)
		return math.Float64frombits(v)
	}
	cacheMisses.Add(1)
	y := float64Uncached(f, x)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[ckey]uint64)
	}
	s.m[k] = math.Float64bits(y)
	s.mu.Unlock()
	return y
}

func cachedPosit32(f bigfp.Func, x float64) posit32.Posit {
	bits := math.Float64bits(x)
	s := &p32Shards[shardOf(f, bits)]
	k := ckey{f, bits}
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		cacheHits.Add(1)
		return posit32.FromBits(v)
	}
	cacheMisses.Add(1)
	y := posit32Uncached(f, x)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[ckey]uint32)
	}
	s.m[k] = y.Bits()
	s.mu.Unlock()
	return y
}

func cachedTarget(t interval.Target, f bigfp.Func, x float64) (float64, bool) {
	bits := math.Float64bits(x)
	s := &tgtShards[shardOf(f, bits)]
	k := tkey{t.Name(), f, bits}
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		cacheHits.Add(1)
		return v.v, v.ok
	}
	cacheMisses.Add(1)
	y, yok := targetUncached(t, f, x)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[tkey]tval)
	}
	s.m[k] = tval{y, yok}
	s.mu.Unlock()
	return y, yok
}

// precompute fills the cache for n items in parallel: each distinct
// input is evaluated exactly once (the inputs of one bulk call are
// expected to be duplicate-free, as all harness samples are).
func precompute(n int, eval func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			eval(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				eval(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// PrecomputeTarget bulk-fills the target-generic cache for f over xs
// (for the two 32-bit targets this lands in the dedicated caches via
// Target's dispatch).
func PrecomputeTarget(t interval.Target, f bigfp.Func, xs []float64) {
	precompute(len(xs), func(i int) { Target(t, f, xs[i]) })
}
