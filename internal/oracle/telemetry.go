// Ziv-ladder outcome counters and the telemetry bridge.
//
// The oracle is the generator's dominant cost (the paper reports MPFR
// as 86% of total time), so the first question any generation-time
// trace must answer is "which precision did the ladder stop at". Every
// uncached evaluation increments exactly one of the counters below:
// the tier-0 double-reference guard, one of the ladder rungs
// (96/160/256/400 bits), or the 400-bit center fallback. The atomics
// cost nanoseconds against an evaluation that costs microseconds.
package oracle

import (
	"strconv"
	"sync/atomic"

	"rlibm32/internal/telemetry"
)

var (
	tier0Decided atomic.Uint64                     // guard-band decided, no ladder run
	zivAccepts   [len(precisionsArr)]atomic.Uint64 // accepted at rung i
	zivFallback  atomic.Uint64                     // 400-bit band still straddled; centre accepted (posit32: lower end)
)

// precisionsArr mirrors the precisions ladder with a fixed size so the
// counter array is allocation-free. oracle.go asserts they stay in
// sync at init.
var precisionsArr = [4]uint{96, 160, 256, 400}

func noteTier0()       { tier0Decided.Add(1) }
func noteZiv(i int)    { zivAccepts[i].Add(1) }
func noteZivFallback() { zivFallback.Add(1) }

// ZivStats is a snapshot of the ladder outcome counters.
type ZivStats struct {
	Tier0    uint64    // decided by the float64 reference + guard band
	ByPrec   [4]uint64 // accepted at 96/160/256/400 bits
	Fallback uint64    // 400-bit interval straddled; centre accepted (posit32: lower end)
}

// MaxPrec returns the highest precision any evaluation needed (0 when
// nothing ran or everything was tier-0).
func (z ZivStats) MaxPrec() uint {
	if z.Fallback > 0 {
		return precisionsArr[len(precisionsArr)-1]
	}
	for i := len(precisionsArr) - 1; i >= 0; i-- {
		if z.ByPrec[i] > 0 {
			return precisionsArr[i]
		}
	}
	return 0
}

// Sub returns z - o counter-wise: the ladder activity between two
// snapshots (callers bracket a generation run to attribute outcomes to
// it).
func (z ZivStats) Sub(o ZivStats) ZivStats {
	z.Tier0 -= o.Tier0
	for i := range z.ByPrec {
		z.ByPrec[i] -= o.ByPrec[i]
	}
	z.Fallback -= o.Fallback
	return z
}

// Ziv returns the cumulative ladder outcome counters.
func Ziv() ZivStats {
	var z ZivStats
	z.Tier0 = tier0Decided.Load()
	for i := range zivAccepts {
		z.ByPrec[i] = zivAccepts[i].Load()
	}
	z.Fallback = zivFallback.Load()
	return z
}

// resetZiv zeroes the ladder counters (tests; ResetCache calls it so
// "reset the oracle" keeps meaning one thing).
func resetZiv() {
	tier0Decided.Store(0)
	for i := range zivAccepts {
		zivAccepts[i].Store(0)
	}
	zivFallback.Store(0)
}

// EnableTelemetry exports the oracle's cache and Ziv-ladder counters
// on reg (scrape-time reads of the existing atomics — the oracle hot
// path is untouched). Safe to call with nil and safe to call more than
// once per registry.
func EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("rlibm_oracle_cache_hits_total",
		"oracle memoization cache hits", func() uint64 { return cacheHits.Load() })
	reg.CounterFunc("rlibm_oracle_cache_misses_total",
		"oracle memoization cache misses (actual Ziv ladder runs)",
		func() uint64 { return cacheMisses.Load() })
	reg.GaugeFunc("rlibm_oracle_cache_hit_ratio",
		"hits / (hits + misses), 0 when no lookups yet", func() float64 {
			h, m := cacheHits.Load(), cacheMisses.Load()
			if h+m == 0 {
				return 0
			}
			return float64(h) / float64(h+m)
		})
	reg.CounterFunc("rlibm_oracle_tier0_decided_total",
		"evaluations decided by the float64 reference + guard band",
		func() uint64 { return tier0Decided.Load() })
	for i := range precisionsArr {
		i := i
		reg.CounterFunc("rlibm_oracle_ziv_accepts_total",
			"evaluations accepted at each Ziv ladder precision",
			func() uint64 { return zivAccepts[i].Load() },
			"prec", strconv.FormatUint(uint64(precisionsArr[i]), 10))
	}
	reg.CounterFunc("rlibm_oracle_ziv_fallback_total",
		"evaluations where the 400-bit band still straddled a rounding boundary",
		func() uint64 { return zivFallback.Load() })
}

func init() {
	// The counter array is sized statically; keep it honest against the
	// ladder definition in oracle.go.
	if len(precisionsArr) != len(precisions) {
		panic("oracle: precisionsArr out of sync with precisions")
	}
	for i, p := range precisions {
		if precisionsArr[i] != p {
			panic("oracle: precisionsArr out of sync with precisions")
		}
	}
}
