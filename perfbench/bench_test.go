package main

// Self-test of the benchmark: every workload runs at a tiny size, untraced
// and traced, and must print every metric BENCHMARK.json names with the
// unit it declares; a run whose expected outputs are deliberately wrong
// must fail its checks.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinySizes() sizes {
	s := fullSizes()
	s.Procs = 1
	s.SetupReps = 2
	s.Window = 16
	s.ChainRate = 200
	s.TailSample = 4
	s.DagLeaves = 20
	s.DagChunks = 4
	s.ToolBytes = 4 << 10
	s.SimProcess = 90
	s.SimWorkers = 4
	s.RTRounds = 1000
	s.HashRepeats = 1
	return s
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the tiny size and returns its exit code and
// the report parsed from the last line of its output.
func runTiny(t *testing.T, workload string, trace, corrupt bool) (int, report) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(root, ".bench_build", "selftest")
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	cfg := &config{
		workload: workload,
		seed:     7,
		seconds:  0.4,
		trace:    trace,
		root:     root,
		workDir:  filepath.Join(dir, "work"),
		sizes:    tinySizes(),
		corrupt:  corrupt,
	}
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not a report: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	if code != 0 && !corrupt {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, rep
}

// checkMetrics asserts the report carries exactly the named metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, workload string, rep report, want []specMetric) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, want %d", workload, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("workload %s has no runner", w.Name)
		}
		for _, trace := range []bool{false, true} {
			code, rep := runTiny(t, w.Name, trace, false)
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, correct %v, %d of %d failed", w.Name, trace, code, rep.Correct, rep.Failed, rep.Attempted)
			}
			if trace {
				checkMetrics(t, w.Name, rep, s.PerLayer)
			} else {
				checkMetrics(t, w.Name, rep, s.EndToEnd)
				for _, m := range s.EndToEnd {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

func TestWrongExpectationFailsTheRun(t *testing.T) {
	for name := range workloads {
		code, rep := runTiny(t, name, false, true)
		if code == 0 || rep.Correct || rep.Failed == 0 {
			t.Errorf("%s with a wrong expected output: exit %d, correct %v, %d failed; want a failed run",
				name, code, rep.Correct, rep.Failed)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	check := func(kind string, have []metricDef, want []specMetric) {
		if len(have) != len(want) {
			t.Fatalf("%s: benchmark defines %d metrics, BENCHMARK.json %d", kind, len(have), len(want))
		}
		for i := range have {
			if have[i].name != want[i].Name || have[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: benchmark %s/%s, BENCHMARK.json %s/%s",
					kind, i, have[i].name, have[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(append([]float64(nil), xs...), 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.9); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := beyond(xs, 3); got != 2 {
		t.Errorf("beyond(3) = %v, want 2", got)
	}
}
