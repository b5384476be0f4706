// Package exhaust is the all-input verifier: a sharded, parallel,
// checkpointed sweep that checks every input of a served
// (representation, function) pair against the correctly rounded
// result — all 2^32 bit patterns of float32 and posit32, all 2^16 of
// bfloat16, float16 and posit16.
//
// This is the paper's acceptance bar — RLIBM-32 checks every input of
// every function, for float32 and posit32 alike — made affordable by a
// two-tier check. Tier one computes the reference in double precision
// (oracle.Ref64) and asks whether a guard band around it pins the
// rounding to the target; only when the band straddles a rounding
// boundary, or a library result disagrees with the decided value, does
// tier two run the arbitrary-precision Ziv oracle. A zero or infinite
// reference is decided by range: an IEEE target rounds it as is, and a
// posit saturates to ±MinPos or ±MaxPos, except at a function's exact
// zeros, which go to the oracle. In practice well under 0.1% of inputs
// escalate, so the sweep runs at hardware-filter speed instead of
// Ziv-ladder speed.
//
// Every input runs through every path the library serves: rlibm's
// scalar Func and batch FuncSlice for float32 and posit32, the public
// Func of the 16-bit packages (which rlibmd serves one value at a
// time), or a baseline library's one function. Each path is checked
// against the same correctly rounded result, and mismatches are
// counted per path.
//
// The same engine checks an explicit list of bit patterns
// (Config.Inputs): rlibmcheck's Tables 1 and 2 and the tier-1 tests
// check the deterministic samples of internal/checks this way, so
// there is one definition of a wrong result, sampled or not.
//
// The sweep visits bit patterns in ascending order (or the listed
// ones in list order), in contiguous shards: workers claim shards from
// an atomic counter and fold per-shard results into a collector that
// maintains a completed-shard bitmap. The bitmap plus counters and
// mismatch log checkpoint to disk via atomic rename (checkpoint.go),
// so an interrupted sweep resumes from the last completed shard with
// accounting identical to an uninterrupted run.
package exhaust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rlibm32/bfloat16"
	"rlibm32/float16"
	"rlibm32/internal/baselines"
	"rlibm32/internal/bigfp"
	"rlibm32/internal/checks"
	"rlibm32/internal/interval"
	"rlibm32/internal/libm"
	"rlibm32/internal/oracle"
	"rlibm32/internal/telemetry"
	"rlibm32/posit16"
	"rlibm32/posit32"
	"rlibm32/posit32/positmath"

	rlibm "rlibm32"
)

const (
	// batchSize is the path batch within a shard.
	batchSize = 4096
	// maxMismatches caps the retained mismatch log (the count is always
	// exact; only the log truncates).
	maxMismatches = 1 << 16
)

// Config parameterizes one sweep.
type Config struct {
	// Func names the pair to sweep, spelled variant.name ("posit32.ln",
	// "bfloat16.cospi"); a bare name ("log2") is float32.
	Func string
	// Lib is the library under test: "rlibm" (default) or one of the
	// baselines ("fastfloat", "stddouble", "crdouble", "vecfloat").
	Lib string
	// Workers is the sweep parallelism (default GOMAXPROCS).
	Workers int
	// Inputs, when non-nil, lists the bit patterns to check, in place
	// of every pattern of the representation. Each is checked as
	// listed, duplicates included, by the same per-input decision and
	// served paths as a full sweep. A listed run takes no checkpoint.
	Inputs []uint32
	// ShardBits is log2 of the shard size in inputs. The default grows
	// with the input set (2^width patterns, or len(Inputs)) to give
	// about 128 shards, clamped to [8, 20]: 4096 shards of 1Mi inputs
	// for a 32-bit sweep, and 64 for a 16-bit one, so every worker
	// stays busy. Valid range 8..30.
	ShardBits int
	// Limit bounds the sweep to the first Limit inputs (0 = all of
	// them). A full sweep starts at pattern 0 and walks upward, so
	// bounded CI slices cover zero and the smallest positive values
	// first.
	Limit uint64
	// GuardUlps is the filter guard-band half-width in float64 ulps
	// (default oracle.DefaultGuardUlps).
	GuardUlps float64
	// CheckpointPath enables resumable checkpointing when non-empty.
	CheckpointPath string
	// Resume loads CheckpointPath if it exists and skips its completed
	// shards. Without Resume an existing checkpoint is overwritten.
	Resume bool
	// CheckpointEvery is the number of completed shards between
	// checkpoint writes (default 64).
	CheckpointEvery int
	// Progress, when non-nil, receives a Snapshot at least every
	// ProgressEvery (default 2s) while shards complete, and once at the
	// end.
	Progress      func(Snapshot)
	ProgressEvery time.Duration
	// Metrics, when non-nil, exports sweep progress (completed shards,
	// checked inputs, oracle escalations, mismatches) as counters
	// labelled by type/func/lib on this registry, so a long sweep can be
	// scraped remotely. Nil costs nothing.
	Metrics *telemetry.Registry

	// wrap substitutes each path's evaluator (tests inject deliberately
	// wrong paths with it).
	wrap func(path string, eval evalFunc) evalFunc
}

// Snapshot is a progress observation.
type Snapshot struct {
	ShardsDone, ShardsTotal uint64
	// Inputs counts all checked inputs including those restored from a
	// resumed checkpoint; RunInputs only those checked by this process.
	Inputs, RunInputs uint64
	Escalated         uint64
	Mismatched        uint64
	Elapsed           time.Duration
}

// Report is the outcome of a sweep.
type Report struct {
	Variant, Func, Lib string
	Width              uint // bits per input pattern: 32 or 16

	// Inputs = NaNInputs + Filtered + Escalated over completed shards.
	Inputs     uint64
	NaNInputs  uint64 // NaN or NaR bit patterns (checked for NaN-in/NaN-out)
	Filtered   uint64 // decided by the double reference alone
	Escalated  uint64 // consulted the arbitrary-precision oracle
	Mismatched uint64 // inputs some path got wrong (exact count)

	// Paths names the paths checked; PathMismatched[i] counts the
	// inputs Paths[i] got wrong.
	Paths          []string
	PathMismatched []uint64

	// Mismatches is the retained log, sorted by input pattern;
	// LogTruncated reports whether it was capped at maxMismatches.
	Mismatches   []Mismatch
	LogTruncated bool

	ShardsDone, ShardsTotal uint64
	// Complete is true when every shard ran (false after cancellation).
	Complete bool
	Elapsed  time.Duration
}

// EscalationFraction is the share of non-NaN inputs that needed the
// Ziv oracle — the filter-effectiveness headline number.
func (r *Report) EscalationFraction() float64 {
	if n := r.Filtered + r.Escalated; n > 0 {
		return float64(r.Escalated) / float64(n)
	}
	return 0
}

// Split parses a pair spelled variant.name; a bare name is float32.
func Split(key string) (variant, name string) {
	if v, n, ok := strings.Cut(key, "."); ok {
		return v, n
	}
	return libm.VariantFloat32, key
}

// format is one representation's bit-level view: every pattern decodes
// exactly to a float64, and every float64 rounds to a pattern.
type format struct {
	target interval.Target
	width  uint                 // bits per pattern: 32 or 16
	decode func(uint32) float64 // exact value; NaN for NaN and NaR
	encode func(float64) uint32 // round to nearest; NaN to NaN or NaR
	posit  bool                 // saturates instead of rounding to 0 or ±Inf
}

var formats = map[string]format{
	libm.VariantFloat32: {interval.Float32Target{}, 32,
		func(b uint32) float64 { return float64(math.Float32frombits(b)) },
		func(v float64) uint32 { return math.Float32bits(float32(v)) }, false},
	libm.VariantPosit32: {interval.Posit32Target{}, 32,
		func(b uint32) float64 { return posit32.FromBits(b).Float64() },
		func(v float64) uint32 { return posit32.FromFloat64(v).Bits() }, true},
	libm.VariantBfloat16: {interval.BFloat16Target(), 16,
		func(b uint32) float64 { return bfloat16.FromBits(uint16(b)).Float64() },
		func(v float64) uint32 { return uint32(bfloat16.FromFloat64(v).Bits()) }, false},
	libm.VariantFloat16: {interval.Float16Target(), 16,
		func(b uint32) float64 { return float16.FromBits(uint16(b)).Float64() },
		func(v float64) uint32 { return uint32(float16.FromFloat64(v).Bits()) }, false},
	libm.VariantPosit16: {interval.Posit16Target(), 16,
		func(b uint32) float64 { return posit16.FromBits(uint16(b)).Float64() },
		func(v float64) uint32 { return uint32(posit16.FromFloat64(v).Bits()) }, true},
}

// evalFunc evaluates one path over a batch of input bit patterns,
// writing result bit patterns.
type evalFunc = func(dst, src []uint32)

// path is one served way of evaluating the function under test.
type path struct {
	name string
	eval evalFunc
}

// each lifts a one-value function over a pattern type onto pattern
// slices.
func each[P ~uint16 | ~uint32](f func(P) P) evalFunc {
	return func(dst, src []uint32) {
		for i, b := range src {
			dst[i] = uint32(f(P(b)))
		}
	}
}

// eachFloat32 lifts a float32 function onto pattern slices.
func eachFloat32(f func(float32) float32) evalFunc {
	return func(dst, src []uint32) {
		for i, b := range src {
			dst[i] = math.Float32bits(f(math.Float32frombits(b)))
		}
	}
}

// batchOf runs a slice kernel over a 32-bit value type on pattern
// slices, reinterpreted in place.
func batchOf[T float32 | posit32.Posit](f func(dst, src []T)) evalFunc {
	view := func(s []uint32) []T { return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(s))), len(s)) }
	return func(dst, src []uint32) { f(view(dst), view(src)) }
}

// servedPaths resolves the paths lib serves for (variant, name).
func servedPaths(variant, name, lib string, f format) []path {
	switch {
	case lib == "rlibm" && variant == libm.VariantFloat32:
		scalar, _ := rlibm.Func(name)
		batch, _ := rlibm.FuncSlice(name)
		return []path{{"scalar", eachFloat32(scalar)}, {"batch", batchOf(batch)}}
	case lib == "rlibm" && variant == libm.VariantPosit32:
		scalar, _ := positmath.Func(name)
		batch, _ := positmath.FuncSlice(name)
		return []path{{"scalar", each(scalar)}, {"batch", batchOf(batch)}}
	case lib == "rlibm" && variant == libm.VariantBfloat16:
		scalar, _ := bfloat16.Func(name)
		return []path{{"scalar", each(scalar)}}
	case lib == "rlibm" && variant == libm.VariantFloat16:
		scalar, _ := float16.Func(name)
		return []path{{"scalar", each(scalar)}}
	case lib == "rlibm" && variant == libm.VariantPosit16:
		scalar, _ := posit16.Func(name)
		return []path{{"scalar", each(scalar)}}
	case variant == libm.VariantFloat32:
		if g := baselines.Func32(baselines.Library(lib), name); g != nil {
			return []path{{"scalar", eachFloat32(g)}}
		}
	case variant == libm.VariantPosit32:
		if g := baselines.FuncPosit(baselines.Library(lib), name); g != nil {
			return []path{{"scalar", each(g)}}
		}
	default:
		// The double baselines serve the 16-bit types by rounding their
		// double result.
		if g := baselines.Func64(baselines.Library(lib), name); g != nil {
			return []path{{"scalar", func(dst, src []uint32) {
				for i, b := range src {
					dst[i] = f.encode(g(f.decode(b)))
				}
			}}}
		}
	}
	return nil
}

// engine is the resolved, immutable sweep plan shared by the workers.
type engine struct {
	cfg           Config
	variant, name string
	f             format
	nan           uint32 // the NaN or NaR pattern
	of            bigfp.Func
	ref           func(float64) float64
	paths         []path
	guard         float64
	inputs        []uint32 // the listed patterns; nil sweeps 0, 1, 2, ...
	shardBits     uint
	limit         uint64
	nShards       uint64
}

// How one input's correct result was decided.
const (
	nanInput  = iota // NaN or NaR input: the result must be NaN or NaR
	domain           // NaN reference, a domain error: likewise
	band             // the double reference: range or guard band
	escalated        // the arbitrary-precision oracle
)

// same reports whether two result patterns are the same library
// result under the target's rule: +0 equals -0, and every NaN or NaR
// equals another.
func (e *engine) same(a, b uint32) bool {
	return a == b || e.f.target.SameResult(e.f.decode(a), e.f.decode(b))
}

// oracle returns the correctly rounded result of x from the Ziv oracle.
// float32 runs the ladder alone: oracle.Target would first try the very
// double reference and guard band whose verdict the oracle confirms.
func (e *engine) oracle(x float64) uint32 {
	if e.variant == libm.VariantFloat32 {
		return math.Float32bits(oracle.Float32Ziv(e.of, x))
	}
	v, ok := oracle.Target(e.f.target, e.of, x)
	if !ok {
		return e.nan
	}
	return e.f.encode(v)
}

// want returns the correctly rounded result for input pattern b and how
// it was decided.
func (e *engine) want(b uint32) (uint32, int) {
	x := e.f.decode(b)
	if x != x {
		return e.nan, nanInput
	}
	ref := e.ref(x)
	switch {
	case ref != ref:
		// Every Ref64 reference returns NaN exactly when the
		// mathematical result is NaN (e.g. the whole negative half-line
		// for the log family), so a NaN reference decides the check.
		return e.nan, domain
	case ref == 0 || math.IsInf(ref, 0):
		// A zero double stands for a magnitude far below every target's
		// smallest rounding midpoint, an infinite one for a magnitude
		// far beyond its overflow (oracle.RoundDecided32's reasoning).
		if !e.f.posit {
			return e.f.encode(ref), band
		}
		// A posit never rounds a nonzero real to 0 or NaR: it saturates
		// at ±MinPos and ±MaxPos. The exact zeros and poles of the
		// served functions (x = 1 for the logs, x = 0 for the logs and
		// sinh) are not such reals; the oracle decides them.
		if x != 0 && x != 1 {
			if ref == 0 {
				return e.f.encode(math.Copysign(0x1p-1022, ref)), band
			}
			return e.f.encode(math.Copysign(math.MaxFloat64, ref)), band
		}
	default:
		lo, hi := oracle.GuardBand(ref, e.guard)
		a, c := e.f.encode(lo), e.f.encode(hi)
		if a == c {
			return a, band
		}
		if e.same(a, c) { // -0 and +0 around a tiny reference
			return e.f.encode(ref), band
		}
	}
	return e.oracle(x), escalated
}

// wrong returns the set of paths (bit i for path i) whose result for
// input j is not want.
func (e *engine) wrong(want uint32, got [][]uint32, j int) (set uint) {
	for i := range got {
		if !e.same(got[i][j], want) {
			set |= 1 << i
		}
	}
	return set
}

// shardAcc accumulates one shard's results (merged only if the whole
// shard completes).
type shardAcc struct {
	inputs, nan, filtered, escalated, mismatched uint64
	paths                                        []uint64
	mismatches                                   []Mismatch
	truncated                                    bool
}

// note records input b, which the paths in wrong got wrong.
func (a *shardAcc) note(e *engine, b, want uint32, wrong uint, got [][]uint32, j int) {
	a.mismatched++
	keep := len(a.mismatches) < maxMismatches
	a.truncated = a.truncated || !keep
	m := Mismatch{Bits: b, Want: want}
	for i := range got {
		if wrong&(1<<i) == 0 {
			continue
		}
		a.paths[i]++
		if keep {
			m.Paths = append(m.Paths, e.paths[i].name)
			m.Got = append(m.Got, got[i][j])
		}
	}
	if keep {
		a.mismatches = append(a.mismatches, m)
	}
}

// collector serializes merging of completed shards with the persisted
// state.
type collector struct {
	mu        sync.Mutex
	state     *checkpoint
	path      string
	every     int
	sinceSave int
	truncated bool

	shardsDone  uint64
	startInputs uint64
	start       time.Time
	progress    func(Snapshot)
	progEvery   time.Duration
	lastProg    time.Time
	saveErr     error

	// Scrape counters (nil handles are no-ops when Config.Metrics is
	// unset).
	mShards, mInputs, mEscalated, mMismatched *telemetry.Counter
}

func (c *collector) snapshotLocked(total uint64) Snapshot {
	return Snapshot{
		ShardsDone:  c.shardsDone,
		ShardsTotal: total,
		Inputs:      c.state.Inputs,
		RunInputs:   c.state.Inputs - c.startInputs,
		Escalated:   c.state.Escalated,
		Mismatched:  c.state.Mismatched,
		Elapsed:     time.Since(c.start),
	}
}

// merge folds a completed shard into the state, checkpoints on cadence,
// and reports progress.
func (c *collector) merge(s uint64, acc *shardAcc, e *engine) {
	c.mu.Lock()
	st := c.state
	st.Inputs += acc.inputs
	st.NaNInputs += acc.nan
	st.Filtered += acc.filtered
	st.Escalated += acc.escalated
	st.Mismatched += acc.mismatched
	for i, n := range acc.paths {
		st.PathMismatched[i] += n
	}
	for _, m := range acc.mismatches {
		if len(st.Mismatches) >= maxMismatches {
			c.truncated = true
			break
		}
		st.Mismatches = append(st.Mismatches, m)
	}
	if acc.truncated {
		c.truncated = true
	}
	st.markDone(s)
	c.shardsDone++
	c.sinceSave++
	c.mShards.Add(1)
	c.mInputs.Add(acc.inputs)
	c.mEscalated.Add(acc.escalated)
	c.mMismatched.Add(acc.mismatched)
	var snap Snapshot
	emit := false
	// The final snapshot is emitted by Run; merge only throttles.
	if c.progress != nil && time.Since(c.lastProg) >= c.progEvery && c.shardsDone < e.nShards {
		c.lastProg = time.Now()
		snap = c.snapshotLocked(e.nShards)
		emit = true
	}
	if c.path != "" && (c.sinceSave >= c.every || c.shardsDone == e.nShards) {
		c.sinceSave = 0
		if err := st.save(c.path); err != nil && c.saveErr == nil {
			c.saveErr = err
		}
	}
	c.mu.Unlock()
	if emit {
		c.progress(snap)
	}
}

// Run executes the sweep until every shard completes or ctx is
// canceled. On cancellation it returns the partial Report (Complete ==
// false) with the checkpoint flushed, so a later Resume run finishes
// the job; the returned error is nil in both cases — errors mean the
// sweep could not run or could not persist its state.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}

	state := e.newCheckpoint()
	if cfg.CheckpointPath != "" && cfg.Resume {
		cp, err := loadCheckpoint(cfg.CheckpointPath, *state)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume from: fresh sweep.
		case err != nil:
			return nil, err
		default:
			state = cp
		}
	}

	// Workers never write the bitmap; they skip resume-completed shards
	// via this frozen copy while the collector mutates state.Done.
	preDone := make([]byte, len(state.Done))
	copy(preDone, state.Done)
	pre := &checkpoint{Done: preDone}
	var preShards uint64
	for s := uint64(0); s < e.nShards; s++ {
		if pre.done(s) {
			preShards++
		}
	}

	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 64
	}
	progEvery := cfg.ProgressEvery
	if progEvery <= 0 {
		progEvery = 2 * time.Second
	}
	col := &collector{
		state: state, path: cfg.CheckpointPath, every: every,
		shardsDone: preShards, startInputs: state.Inputs,
		start: time.Now(), progress: cfg.Progress, progEvery: progEvery,
		lastProg: time.Now(),
	}
	if reg := cfg.Metrics; reg != nil {
		lbl := []string{"type", e.variant, "func", e.name, "lib", e.cfg.Lib}
		col.mShards = reg.Counter("rlibm_exhaust_shards_done_total",
			"completed sweep shards", lbl...)
		col.mInputs = reg.Counter("rlibm_exhaust_inputs_total",
			"inputs checked by this process", lbl...)
		col.mEscalated = reg.Counter("rlibm_exhaust_escalated_total",
			"inputs that consulted the arbitrary-precision oracle", lbl...)
		col.mMismatched = reg.Counter("rlibm_exhaust_mismatches_total",
			"oracle-refuted library results", lbl...)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := next.Add(1) - 1
				if s >= e.nShards || ctx.Err() != nil {
					return
				}
				if pre.done(s) {
					continue
				}
				acc := e.sweepShard(ctx, s)
				if acc == nil { // canceled mid-shard: discard partial work
					return
				}
				col.merge(s, acc, e)
			}
		}()
	}
	wg.Wait()

	col.mu.Lock()
	defer col.mu.Unlock()
	if col.path != "" {
		if err := state.save(col.path); err != nil {
			return nil, err
		}
	}
	if col.saveErr != nil {
		return nil, col.saveErr
	}
	rep := &Report{
		Variant: e.variant, Func: e.name, Lib: e.cfg.Lib, Width: e.f.width,
		Inputs: state.Inputs, NaNInputs: state.NaNInputs,
		Filtered: state.Filtered, Escalated: state.Escalated,
		Mismatched:     state.Mismatched,
		PathMismatched: append([]uint64(nil), state.PathMismatched...),
		Mismatches:     append([]Mismatch(nil), state.Mismatches...),
		LogTruncated:   col.truncated,
		ShardsDone:     col.shardsDone, ShardsTotal: e.nShards,
		Complete: col.shardsDone == e.nShards,
		Elapsed:  time.Since(col.start),
	}
	for _, p := range e.paths {
		rep.Paths = append(rep.Paths, p.name)
	}
	sort.Slice(rep.Mismatches, func(i, j int) bool {
		return rep.Mismatches[i].Bits < rep.Mismatches[j].Bits
	})
	if cfg.Progress != nil {
		cfg.Progress(col.snapshotLocked(e.nShards))
	}
	return rep, nil
}

// newEngine validates the configuration and resolves the pair, the
// library's paths, the reference, and the shard layout.
func newEngine(cfg Config) (*engine, error) {
	if cfg.Lib == "" {
		cfg.Lib = "rlibm"
	}
	variant, name := Split(cfg.Func)
	f, ok := formats[variant]
	if !ok {
		return nil, fmt.Errorf("exhaust: unknown representation %q", variant)
	}
	if _, ok := libm.Lookup(variant, name); !ok {
		return nil, fmt.Errorf("exhaust: %s serves no function %q", variant, name)
	}
	of := checks.OracleFunc[name]
	ref, _ := oracle.Ref64(of)
	paths := servedPaths(variant, name, cfg.Lib, f)
	if paths == nil {
		return nil, fmt.Errorf("exhaust: library %q does not implement %s.%s", cfg.Lib, variant, name)
	}
	if cfg.wrap != nil {
		for i := range paths {
			paths[i].eval = cfg.wrap(paths[i].name, paths[i].eval)
		}
	}
	n := uint64(1) << f.width
	if cfg.Inputs != nil {
		if cfg.CheckpointPath != "" {
			return nil, errors.New("exhaust: a listed run takes no checkpoint")
		}
		for _, b := range cfg.Inputs {
			if uint64(b) >= n {
				return nil, fmt.Errorf("exhaust: input %#x is not a %d-bit pattern", b, f.width)
			}
		}
		n = uint64(len(cfg.Inputs))
	}
	shardBits := cfg.ShardBits
	if shardBits == 0 {
		shardBits = min(max(bits.Len64(n)-7, 8), 20)
	}
	if shardBits < 8 || shardBits > 30 {
		return nil, fmt.Errorf("exhaust: shard bits %d outside [8, 30]", shardBits)
	}
	limit := cfg.Limit
	if limit == 0 || limit > n {
		limit = n
	}
	guard := cfg.GuardUlps
	if guard <= 0 {
		guard = oracle.DefaultGuardUlps
	}
	shardSize := uint64(1) << shardBits
	return &engine{
		cfg: cfg, variant: variant, name: name, f: f, nan: f.encode(math.NaN()),
		of: of, ref: ref, paths: paths, guard: guard, inputs: cfg.Inputs,
		shardBits: uint(shardBits), limit: limit,
		nShards: (limit + shardSize - 1) / shardSize,
	}, nil
}

// sweepShard checks every input of shard s, returning nil if ctx was
// canceled before the shard finished (partial results are discarded so
// resume accounting stays exact).
func (e *engine) sweepShard(ctx context.Context, s uint64) *shardAcc {
	lo := s << e.shardBits
	hi := min(lo+1<<e.shardBits, e.limit)
	acc := &shardAcc{paths: make([]uint64, len(e.paths))}
	size := min(hi-lo, batchSize)
	src := make([]uint32, size)
	got := make([][]uint32, len(e.paths))
	for i := range got {
		got[i] = make([]uint32, size)
	}
	for base := lo; base < hi; base += batchSize {
		if ctx.Err() != nil {
			return nil
		}
		n := int(min(hi-base, batchSize))
		if e.inputs != nil {
			copy(src, e.inputs[base:base+uint64(n)])
		} else {
			for j := range src[:n] {
				src[j] = uint32(base) + uint32(j)
			}
		}
		for i, p := range e.paths {
			p.eval(got[i][:n], src[:n])
		}
		for j, b := range src[:n] {
			want, how := e.want(b)
			wrong := e.wrong(want, got, j)
			if wrong != 0 && how == band {
				// The filter refuted a path. Its verdict leans on the
				// reference's ulp contract, so confirm with the full
				// Ziv ladder before recording a mismatch.
				want, how = e.oracle(e.f.decode(b)), escalated
				wrong = e.wrong(want, got, j)
			}
			acc.inputs++
			switch how {
			case nanInput:
				acc.nan++
			case escalated:
				acc.escalated++
			default:
				acc.filtered++
			}
			if wrong != 0 {
				acc.note(e, b, want, wrong, got, j)
			}
		}
	}
	return acc
}
