package exhaust

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// corruptEvery returns a path wrapper that bumps the result of the
// named path to the next bit pattern whenever the input's bit pattern
// is divisible by stride — a synthetic wrong path with an exactly
// predictable mismatch set (on inputs whose results are not NaN).
func corruptEvery(which string, stride uint32) func(string, evalFunc) evalFunc {
	return func(name string, eval evalFunc) evalFunc {
		if name != which {
			return eval
		}
		return func(dst, src []uint32) {
			eval(dst, src)
			for i, b := range src {
				if b%stride == 0 {
					dst[i]++
				}
			}
		}
	}
}

// TestSweepBoundedClean sweeps the first 2^16 inputs of log2 (zero and
// the small positive denormals) and expects a clean bill: every input
// accounted for, zero mismatches, and an escalation fraction far under
// the 1% filter-effectiveness bar.
func TestSweepBoundedClean(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Func: "log2", Limit: 1 << 16, ShardBits: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Inputs != 1<<16 {
		t.Fatalf("incomplete sweep: %+v", rep)
	}
	if rep.NaNInputs+rep.Filtered+rep.Escalated != rep.Inputs {
		t.Errorf("accounting mismatch: NaN %d + filtered %d + escalated %d != %d",
			rep.NaNInputs, rep.Filtered, rep.Escalated, rep.Inputs)
	}
	if rep.Mismatched != 0 {
		t.Errorf("expected clean region, got %d mismatches, first %+v", rep.Mismatched, rep.Mismatches[0])
	}
	if frac := rep.EscalationFraction(); frac >= 0.01 {
		t.Errorf("escalation fraction %v above the 1%% bar", frac)
	}
}

// TestSweepNaNBlock sweeps a shard in the positive NaN block and
// checks NaN inputs are counted and pass the NaN-out contract on every
// path.
func TestSweepNaNBlock(t *testing.T) {
	e, err := newEngine(Config{Func: "exp", ShardBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	acc := e.sweepShard(context.Background(), 0x7F800001>>e.shardBits)
	if acc == nil {
		t.Fatal("sweepShard canceled without cancellation")
	}
	if acc.nan == 0 {
		t.Fatal("shard should contain NaN inputs")
	}
	if acc.mismatched != 0 {
		t.Errorf("NaN-in/NaN-out violated: %+v", acc.mismatches)
	}
}

// TestSweepRefutesCorruptLibrary checks the sweep pinpoints exactly the
// inputs a deliberately wrong path corrupts, and names that path: a
// wrong scalar path beside a correct batch path, and the reverse.
func TestSweepRefutesCorruptLibrary(t *testing.T) {
	const stride = 251
	const limit = 1 << 14
	want := uint64(0)
	for b := uint64(0); b < limit; b += stride {
		want++
	}
	for i, bad := range []string{"scalar", "batch"} {
		rep, err := Run(context.Background(), Config{
			Func: "log2", Limit: limit, ShardBits: 10,
			wrap: corruptEvery(bad, stride),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mismatched != want {
			t.Fatalf("%s: mismatched = %d, want %d", bad, rep.Mismatched, want)
		}
		if rep.Paths[i] != bad || rep.PathMismatched[i] != want || rep.PathMismatched[1-i] != 0 {
			t.Errorf("%s: paths %v counted %v, want %d on %s only", bad, rep.Paths, rep.PathMismatched, want, bad)
		}
		for k, m := range rep.Mismatches {
			if m.Bits%stride != 0 {
				t.Errorf("%s: mismatch %d at bits %#08x not on the corruption stride", bad, k, m.Bits)
			}
			if len(m.Paths) != 1 || m.Paths[0] != bad || len(m.Got) != 1 || m.Got[0] == m.Want {
				t.Errorf("%s: mismatch %d = %+v, want one wrong result on %s", bad, k, m, bad)
			}
		}
		// The log must be sorted by input pattern.
		for k := 1; k < len(rep.Mismatches); k++ {
			if rep.Mismatches[k-1].Bits >= rep.Mismatches[k].Bits {
				t.Fatalf("%s: mismatch log not sorted at %d", bad, k)
			}
		}
	}
}

// TestCheckpointResumeEquivalence is the interrupted-equals-
// uninterrupted guarantee: cancel a sweep mid-flight, resume it, and
// require the final mismatch accounting and the completed-shard bitmap
// to be identical to a never-interrupted run, for float32 and posit32.
func TestCheckpointResumeEquivalence(t *testing.T) {
	for _, key := range []string{"log2", "posit32.log2"} {
		t.Run(key, func(t *testing.T) { checkResumeEquivalence(t, key) })
	}
}

func checkResumeEquivalence(t *testing.T, key string) {
	const stride = 251
	const limit = 1 << 18
	dir := t.TempDir()
	base := Config{
		Func: key, Limit: limit, ShardBits: 14, // 16 shards, 4 batches each
		CheckpointEvery: 1,
		wrap:            corruptEvery("batch", stride),
	}

	// Uninterrupted reference run.
	refCfg := base
	refCfg.CheckpointPath = filepath.Join(dir, "ref.ckpt")
	refRep, err := Run(context.Background(), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !refRep.Complete || refRep.Mismatched == 0 {
		t.Fatalf("reference run unusable: %+v", refRep)
	}

	// Interrupted run: cancel from the progress callback once a few
	// shards have completed — workers abandon their current shard
	// mid-flight, so the checkpoint holds a strict subset of shards.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intCfg := base
	intCfg.CheckpointPath = filepath.Join(dir, "int.ckpt")
	intCfg.ProgressEvery = time.Nanosecond
	var canceled atomic.Bool
	intCfg.Progress = func(s Snapshot) {
		if s.ShardsDone >= 3 {
			canceled.Store(true)
			cancel()
		}
	}
	intRep, err := Run(ctx, intCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !canceled.Load() {
		t.Skip("run finished before cancellation could land (machine too fast for the window)")
	}
	if intRep.Complete {
		t.Skip("cancellation landed after completion")
	}
	if intRep.ShardsDone == 0 || intRep.ShardsDone >= intRep.ShardsTotal {
		t.Fatalf("interrupted run completed %d/%d shards, want a strict partial",
			intRep.ShardsDone, intRep.ShardsTotal)
	}

	// Resume and finish.
	resCfg := intCfg
	resCfg.Progress = nil
	resCfg.Resume = true
	resRep, err := Run(context.Background(), resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resRep.Complete {
		t.Fatalf("resumed run incomplete: %d/%d", resRep.ShardsDone, resRep.ShardsTotal)
	}

	// Interrupted+resumed must equal uninterrupted, exactly.
	if resRep.Inputs != refRep.Inputs || resRep.NaNInputs != refRep.NaNInputs {
		t.Errorf("input accounting differs: resumed %d/%d, reference %d/%d",
			resRep.Inputs, resRep.NaNInputs, refRep.Inputs, refRep.NaNInputs)
	}
	if resRep.Mismatched != refRep.Mismatched {
		t.Errorf("mismatch count differs: resumed %d, reference %d", resRep.Mismatched, refRep.Mismatched)
	}
	if !reflect.DeepEqual(resRep.Mismatches, refRep.Mismatches) {
		t.Error("mismatch logs differ between resumed and reference runs")
	}
	refCkpt, err := loadCheckpoint(refCfg.CheckpointPath, checkpointSkeleton(refCfg))
	if err != nil {
		t.Fatal(err)
	}
	resCkpt, err := loadCheckpoint(resCfg.CheckpointPath, checkpointSkeleton(resCfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refCkpt.Done, resCkpt.Done) {
		t.Error("completed-shard bitmaps differ between resumed and reference runs")
	}
	if refCkpt.Mismatched != resCkpt.Mismatched || refCkpt.Inputs != resCkpt.Inputs {
		t.Errorf("checkpoint totals differ: ref {%d %d}, res {%d %d}",
			refCkpt.Inputs, refCkpt.Mismatched, resCkpt.Inputs, resCkpt.Mismatched)
	}
}

// checkpointSkeleton builds the validation template loadCheckpoint
// expects for cfg.
func checkpointSkeleton(cfg Config) checkpoint {
	e, err := newEngine(cfg)
	if err != nil {
		panic(err)
	}
	return *e.newCheckpoint()
}

// TestCheckpointConfigMismatch verifies a resume against an
// incompatible sweep layout is rejected rather than merged.
func TestCheckpointConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cfg := Config{Func: "exp", Limit: 1 << 12, ShardBits: 10, CheckpointPath: path}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Config{
		"func":  {Func: "ln", Limit: 1 << 12, ShardBits: 10, CheckpointPath: path, Resume: true},
		"limit": {Func: "exp", Limit: 1 << 13, ShardBits: 10, CheckpointPath: path, Resume: true},
		"shard": {Func: "exp", Limit: 1 << 12, ShardBits: 11, CheckpointPath: path, Resume: true},
		"guard": {Func: "exp", Limit: 1 << 12, ShardBits: 10, GuardUlps: 32, CheckpointPath: path, Resume: true},
		"lib":   {Func: "exp", Lib: "fastfloat", Limit: 1 << 12, ShardBits: 10, CheckpointPath: path, Resume: true},
	} {
		if _, err := Run(context.Background(), bad); err == nil {
			t.Errorf("resume with different %s accepted", name)
		}
	}

	// A posit32 checkpoint does not resume as the float32 function of
	// the same name, and a version-1 checkpoint is refused.
	ppath := filepath.Join(dir, "posit.ckpt")
	if _, err := Run(context.Background(), Config{Func: "posit32.exp", Limit: 1 << 12, ShardBits: 10, CheckpointPath: ppath}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Func: "exp", Limit: 1 << 12, ShardBits: 10, CheckpointPath: ppath, Resume: true}); err == nil {
		t.Error("posit32 checkpoint resumed as float32")
	}
	old := filepath.Join(dir, "v1.ckpt")
	if err := os.WriteFile(old, []byte(`{"version":1,"func":"exp","lib":"rlibm","shard_bits":10,"limit":4096,"guard_ulps":256,"done":"AA=="}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Func: "exp", Limit: 1 << 12, ShardBits: 10, CheckpointPath: old, Resume: true}); err == nil {
		t.Error("version-1 checkpoint accepted")
	}
}

// TestResumeWithoutCheckpointStartsFresh covers the first run of a
// -resume invocation: no file yet, sweep runs from scratch.
func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "none.ckpt")
	rep, err := Run(context.Background(), Config{
		Func: "exp", Limit: 1 << 12, ShardBits: 10,
		CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Inputs != 1<<12 {
		t.Fatalf("fresh resume run incomplete: %+v", rep)
	}
}

// TestUnknownFuncAndLib checks configuration errors surface.
func TestUnknownFuncAndLib(t *testing.T) {
	if _, err := Run(context.Background(), Config{Func: "tan"}); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := Run(context.Background(), Config{Func: "ln", Lib: "no-such-lib"}); err == nil {
		t.Error("unknown library accepted")
	}
	if _, err := Run(context.Background(), Config{Func: "posit32.sinpi"}); err == nil {
		t.Error("posit32 sinpi accepted, but posit32 serves no sinpi")
	}
	if _, err := Run(context.Background(), Config{Func: "posit8.ln"}); err == nil {
		t.Error("unknown representation accepted")
	}
}

// TestWantPosit32Witnesses pins the engine's correct result for four
// posit32 inputs the served tables are known to get wrong.
func TestWantPosit32Witnesses(t *testing.T) {
	for _, c := range []struct {
		key        string
		bits, want uint32
	}{
		{"posit32.exp2", 0x244bfec0, 0x408d0507},
		{"posit32.exp10", 0x273c2250, 0x4285b88e},
		{"posit32.exp10", 0xdde48990, 0x3d570c60},
		{"posit32.exp", 0xff480000, 0x3ffffffd},
	} {
		e, err := newEngine(Config{Func: c.key})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := e.want(c.bits); got != c.want {
			t.Errorf("%s(%#08x): want decided %#08x, correct %#08x", c.key, c.bits, got, c.want)
		}
	}
}

// TestWantPositSaturation checks that a zero or infinite double
// reference decides a posit result by saturation, without the oracle,
// and that the exact zeros x = 1 of ln and x = 0 of sinh reach the
// oracle and give 0.
func TestWantPositSaturation(t *testing.T) {
	const minPos, maxPos, negMaxPos = 0x00000001, 0x7fffffff, 0x80000001
	for _, c := range []struct {
		key        string
		bits, want uint32
		how        int
	}{
		{"posit32.exp", negMaxPos, minPos, band},
		{"posit32.exp", maxPos, maxPos, band},
		{"posit32.sinh", maxPos, maxPos, band},
		{"posit32.sinh", negMaxPos, negMaxPos, band},
		{"posit32.cosh", maxPos, maxPos, band},
		{"posit32.ln", 0x40000000, 0, escalated},
		{"posit32.sinh", 0, 0, escalated},
	} {
		e, err := newEngine(Config{Func: c.key})
		if err != nil {
			t.Fatal(err)
		}
		if got, how := e.want(c.bits); got != c.want || how != c.how {
			t.Errorf("%s(%#08x) = %#08x decided by %d, want %#08x by %d", c.key, c.bits, got, how, c.want, c.how)
		}
	}
}

// TestListedMatchesBounded checks that listing patterns 0 through
// 2^16-1 gives the report a Limit-bounded sweep of the same patterns
// gives, down to the per-path counts and the mismatch log.
func TestListedMatchesBounded(t *testing.T) {
	const limit = 1 << 16
	inputs := make([]uint32, limit)
	for i := range inputs {
		inputs[i] = uint32(i)
	}
	wrap := corruptEvery("batch", 251)
	bounded, err := Run(context.Background(), Config{Func: "posit32.sinh", Limit: limit, wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	listed, err := Run(context.Background(), Config{Func: "posit32.sinh", Inputs: inputs, wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	if !listed.Complete || listed.Inputs != limit || listed.Mismatched == 0 {
		t.Fatalf("listed run unusable: %+v", listed)
	}
	type counts struct {
		Inputs, NaN, Filtered, Escalated, Mismatched uint64
		Paths                                        []string
		PathMismatched                               []uint64
		Mismatches                                   []Mismatch
	}
	view := func(r *Report) counts {
		return counts{r.Inputs, r.NaNInputs, r.Filtered, r.Escalated, r.Mismatched, r.Paths, r.PathMismatched, r.Mismatches}
	}
	if got, want := view(listed), view(bounded); !reflect.DeepEqual(got, want) {
		t.Errorf("listed report differs from the bounded sweep:\nlisted  %+v\nbounded %+v", got, want)
	}
}

// corruptScalarAt returns a path wrapper that bumps the scalar path's
// result on each listed bit pattern and leaves the batch path alone.
func corruptScalarAt(bad ...uint32) func(string, evalFunc) evalFunc {
	set := make(map[uint32]bool, len(bad))
	for _, b := range bad {
		set[b] = true
	}
	return func(name string, eval evalFunc) evalFunc {
		if name != "scalar" {
			return eval
		}
		return func(dst, src []uint32) {
			eval(dst, src)
			for i, b := range src {
				if set[b] {
					dst[i]++
				}
			}
		}
	}
}

// checkScalarMismatches checks a report of a listed exp run whose
// scalar path alone is wrong: the input count, the mismatch count on
// each path, and a log of exactly want, in order, naming the scalar
// path.
func checkScalarMismatches(t *testing.T, rep *Report, inputs int, want []uint32) {
	t.Helper()
	n := uint64(len(want))
	if rep.Inputs != uint64(inputs) || rep.Mismatched != n || rep.PathMismatched[0] != n || rep.PathMismatched[1] != 0 {
		t.Fatalf("inputs %d, mismatched %d, per path %v %v; want %d, %d, scalar %d and batch 0",
			rep.Inputs, rep.Mismatched, rep.Paths, rep.PathMismatched, inputs, n, n)
	}
	if len(rep.Mismatches) != len(want) {
		t.Fatalf("%d mismatches logged, want %d: %+v", len(rep.Mismatches), len(want), rep.Mismatches)
	}
	for k, bits := range want {
		m := rep.Mismatches[k]
		if m.Bits != bits || len(m.Paths) != 1 || m.Paths[0] != "scalar" {
			t.Errorf("mismatch %d = %+v, want bits %#08x on scalar", k, m, bits)
		}
	}
}

// TestListedWrongAtZeroCounted checks that a wrong result at pattern 0
// is not mistaken for an empty slot: over an unsorted list holding
// pattern 0 twice, both occurrences are counted and logged first, with
// the wrong path named.
func TestListedWrongAtZeroCounted(t *testing.T) {
	f := math.Float32bits
	inputs := []uint32{f(5), f(3), 0, f(7), 0}
	rep, err := Run(context.Background(), Config{Func: "exp", Inputs: inputs, wrap: corruptScalarAt(0)})
	if err != nil {
		t.Fatal(err)
	}
	checkScalarMismatches(t, rep, len(inputs), []uint32{0, 0})
}

// TestListedMismatchLogPatternOrder checks that the mismatch log of a
// listed run is in bit-pattern order whatever the order of the list,
// the same on every run, and that the correct batch path is not
// charged with the scalar path's errors.
func TestListedMismatchLogPatternOrder(t *testing.T) {
	f := math.Float32bits
	inputs := []uint32{f(7), f(5), f(1), 0, f(-1.5), f(-3)}
	for trial := 0; trial < 3; trial++ {
		rep, err := Run(context.Background(), Config{Func: "exp", Inputs: inputs, wrap: corruptScalarAt(f(-3), 0, f(5))})
		if err != nil {
			t.Fatal(err)
		}
		checkScalarMismatches(t, rep, len(inputs), []uint32{0, f(5), f(-3)})
	}
}

// TestListedRunRefusals checks that a listed run takes no checkpoint
// (it could not tell two lists apart) and no pattern wider than the
// representation.
func TestListedRunRefusals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "listed.ckpt")
	if _, err := Run(context.Background(), Config{Func: "exp", Inputs: []uint32{0}, CheckpointPath: path}); err == nil {
		t.Error("listed run accepted a checkpoint")
	}
	if _, err := Run(context.Background(), Config{Func: "bfloat16.exp", Inputs: []uint32{1 << 16}}); err == nil {
		t.Error("17-bit pattern accepted for bfloat16")
	}
}
