// Command rlibmverify runs the exhaustive verification sweep of
// internal/exhaust: every input bit pattern of a served (representation,
// function) pair (or a -limit bounded prefix) runs through every path
// the library serves and is checked against the correctly rounded
// result, using the two-tier filter-then-oracle scheme. -func names the
// pair as variant.name (posit32.ln, bfloat16.cospi); a bare name is
// float32.
//
// Usage:
//
//	rlibmverify -func log2                     # full 2^32 sweep of rlibm float32 log2
//	rlibmverify -func posit32.ln               # full 2^32 sweep of rlibm posit32 ln
//	rlibmverify -func posit16.exp              # all 2^16 posit16 inputs
//	rlibmverify -func all -limit 1<<24         # bounded CI slice, all float32 functions
//	rlibmverify -func exp -lib fastfloat       # refute a baseline library
//	rlibmverify -func ln -checkpoint ln.ckpt   # checkpointed ...
//	rlibmverify -func ln -checkpoint ln.ckpt -resume   # ... and resumed
//
// The exit status is 0 iff every completed sweep found zero mismatches.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rlibm32/internal/exhaust"
	"rlibm32/internal/oracle"
	"rlibm32/internal/telemetry"

	rlibm "rlibm32"
)

func main() {
	var (
		funcName  = flag.String("func", "", "pair to verify: a float32 function (ln, log2, ...), variant.name (posit32.ln, bfloat16.cospi), or 'all' float32 functions")
		lib       = flag.String("lib", "rlibm", "library under test (rlibm, fastfloat, stddouble, crdouble, vecfloat)")
		workers   = flag.Int("workers", 0, "sweep parallelism (default GOMAXPROCS)")
		shardBits = flag.Int("shard-bits", 0, "log2 of inputs per shard (default 20, 10 for the 16-bit types)")
		limitStr  = flag.String("limit", "0", "bound the sweep to the first N input patterns (accepts 1<<24 syntax; 0 = all of them)")
		ckpt      = flag.String("checkpoint", "", "checkpoint file path (enables resumable sweeps)")
		resume    = flag.Bool("resume", false, "resume from -checkpoint if it exists")
		guard     = flag.Float64("guard", 0, "filter guard band half-width in float64 ulps (default 256)")
		quiet     = flag.Bool("q", false, "suppress progress lines")
		maxShow   = flag.Int("show", 10, "mismatches to print per function")
		dump      = flag.String("dump", "", "append refuted float32 input bit patterns to this file (rlibmgen -extra format)")
		metrics   = flag.String("metrics", "", "serve Prometheus sweep-progress metrics on this address (e.g. :9100) for the duration of the run")
	)
	flag.Parse()
	if *funcName == "" {
		fmt.Fprintln(os.Stderr, "rlibmverify: -func is required (one of", strings.Join(rlibm.Names(), " "), "or 'all')")
		os.Exit(2)
	}
	limit, err := parseLimit(*limitStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlibmverify: bad -limit %q: %v\n", *limitStr, err)
		os.Exit(2)
	}

	names := []string{*funcName}
	if *funcName == "all" {
		names = rlibm.Names()
	}
	// rlibmgen -extra reads float32 patterns only.
	if v, _ := exhaust.Split(*funcName); *dump != "" && v != "float32" {
		fmt.Fprintf(os.Stderr, "rlibmverify: -dump takes float32 functions only, not %s\n", *funcName)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the sweep; the engine flushes a checkpoint
	// of the completed shards before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A multi-hour full sweep is worth watching remotely: -metrics
	// serves /metrics with per-shard progress and the oracle cache and
	// Ziv-ladder counters the escalation path exercises.
	var reg *telemetry.Registry
	if *metrics != "" {
		reg = telemetry.NewRegistry()
		oracle.EnableTelemetry(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintf(os.Stderr, "rlibmverify: -metrics: %v\n", err)
			}
		}()
	}

	failed := false
	interrupted := false
	for _, name := range names {
		cfg := exhaust.Config{
			Func: name, Lib: *lib,
			Workers: *workers, ShardBits: *shardBits,
			Limit: limit, GuardUlps: *guard,
			CheckpointPath: ckptPath(*ckpt, name, len(names) > 1),
			Resume:         *resume,
			Metrics:        reg,
		}
		if !*quiet {
			cfg.Progress = func(s exhaust.Snapshot) {
				rate := float64(s.RunInputs) / s.Elapsed.Seconds()
				fmt.Printf("%-6s %6.2f%%  shards %d/%d  inputs %d  %.1fM/s  escalated %d  mismatched %d\n",
					name, 100*float64(s.ShardsDone)/float64(s.ShardsTotal),
					s.ShardsDone, s.ShardsTotal, s.Inputs, rate/1e6, s.Escalated, s.Mismatched)
			}
		}
		rep, err := exhaust.Run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlibmverify: %s: %v\n", name, err)
			os.Exit(2)
		}
		printReport(rep, *maxShow)
		if rep.Mismatched > 0 {
			failed = true
			if *dump != "" {
				if err := dumpMismatches(*dump, name, rep); err != nil {
					fmt.Fprintf(os.Stderr, "rlibmverify: -dump: %v\n", err)
					os.Exit(2)
				}
			}
		}
		if !rep.Complete {
			interrupted = true
			break
		}
	}
	switch {
	case failed:
		os.Exit(1)
	case interrupted:
		fmt.Println("interrupted — rerun with -resume to continue")
		os.Exit(130)
	}
}

// dumpMismatches appends the refuted input bit patterns to path in the
// one-pattern-per-line format rlibmgen -extra reads back, closing the
// counterexample-guided loop between verification and generation.
func dumpMismatches(path, name string, rep *exhaust.Report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s/%s: %d refuted inputs\n", rep.Lib, name, rep.Mismatched)
	for _, m := range rep.Mismatches {
		fmt.Fprintf(&sb, "%#08x\n", m.Bits)
	}
	_, err = f.WriteString(sb.String())
	return err
}

// ckptPath derives a per-function checkpoint path when sweeping several
// functions against one -checkpoint flag.
func ckptPath(base, name string, multi bool) string {
	if base == "" || !multi {
		return base
	}
	return base + "." + name
}

// parseLimit accepts a plain integer or the 1<<N shift syntax the CI
// workflow and docs use.
func parseLimit(s string) (uint64, error) {
	if base, shift, ok := strings.Cut(s, "<<"); ok {
		b, err := strconv.ParseUint(strings.TrimSpace(base), 0, 64)
		if err != nil {
			return 0, err
		}
		k, err := strconv.ParseUint(strings.TrimSpace(shift), 0, 6)
		if err != nil {
			return 0, err
		}
		return b << k, nil
	}
	return strconv.ParseUint(strings.TrimSpace(s), 0, 64)
}

func printReport(r *exhaust.Report, maxShow int) {
	status := "PROVED correctly rounded"
	if r.Mismatched > 0 {
		status = fmt.Sprintf("REFUTED: %d wrong results", r.Mismatched)
	}
	scope := fmt.Sprintf("%d inputs", r.Inputs)
	if r.Complete && r.Inputs == 1<<r.Width {
		scope = fmt.Sprintf("full 2^%d sweep", r.Width)
	}
	if !r.Complete {
		status = fmt.Sprintf("INCOMPLETE (%d/%d shards): %d wrong so far", r.ShardsDone, r.ShardsTotal, r.Mismatched)
	}
	fmt.Printf("%s.%s %s %s — %s in %s\n", r.Variant, r.Func, r.Lib, status, scope, r.Elapsed.Round(time.Millisecond))
	fmt.Printf("       inputs %d (NaN %d)  filter-decided %d (%.4f%%)  oracle-escalated %d (%.6f%%)\n",
		r.Inputs, r.NaNInputs, r.Filtered, 100*(1-r.EscalationFraction()), r.Escalated, 100*r.EscalationFraction())
	fmt.Printf("       wrong per path:")
	for i, p := range r.Paths {
		fmt.Printf("  %s %d", p, r.PathMismatched[i])
	}
	fmt.Println()
	for i, m := range r.Mismatches {
		if i >= maxShow {
			fmt.Printf("       ... %d more\n", int(r.Mismatched)-maxShow)
			break
		}
		fmt.Printf("       x=%#08x  want=%#08x ", m.Bits, m.Want)
		for k, p := range m.Paths {
			fmt.Printf(" %s=%#08x", p, m.Got[k])
		}
		fmt.Println()
	}
}
