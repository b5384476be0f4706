package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared is the part of ../BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func runBrief(o options) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(o, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestEveryWorkloadPrintsDeclaredMetrics runs every workload briefly,
// untraced and traced, and checks that the result line holds exactly
// the metrics BENCHMARK.json declares for that mode, each with its
// declared unit.
func TestEveryWorkloadPrintsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, wl := range d.Workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			code, stdout, stderr := runBrief(options{workload: wl.Name, seed: 7, seconds: 1, trace: trace})
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", wl.Name, trace, code, stderr)
			}
			lines := strings.Split(strings.TrimSpace(stdout), "\n")
			var r resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", wl.Name, trace, err)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl.Name, trace, len(r.Metrics), len(want))
			}
		}
	}
}

// TestMismatchExitsNonZero corrupts one function's reference outputs
// and checks that every workload refuses to report metrics.
func TestMismatchExitsNonZero(t *testing.T) {
	for _, wl := range workloads {
		flip := func(fns []*fn) {
			for i := range fns[0].want {
				fns[0].want[i] ^= 1
			}
		}
		code, stdout, stderr := runBrief(options{workload: wl.name, seed: 7, seconds: 1, tamper: flip})
		if code != 1 {
			t.Errorf("%s: exit %d, want 1\n%s", wl.name, code, stderr)
		}
		if strings.Contains(stdout, `"metrics"`) {
			t.Errorf("%s: printed a result despite the mismatch", wl.name)
		}
		if !strings.Contains(stderr, "MISMATCH workload="+wl.name) {
			t.Errorf("%s: stderr does not report the mismatch:\n%s", wl.name, stderr)
		}
	}
}
