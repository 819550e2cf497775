// Command perfbench is the repository benchmark: one process runs one
// workload against an in-process TaskVine cluster (manager and workers over
// loopback) or the simulator, checks every output, and prints its metrics as
// a JSON object on the last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload invoke_closed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// measures the workload twice, untraced and then traced (spans around the
// benchmark's own calls into the program, plus the program's trace log and
// metric registries read after the run), and reports the per-layer metrics
// together with the tracing overhead. See README.md for the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout the benchmark runs in; workDir holds the
	// workers' caches and the generated dataset for the run.
	root    string
	workDir string
	// spread reports whether directories made in workDir each get a block
	// group of their own (see makeSpreadDir).
	spread bool
	sizes  sizes
	// corrupt makes every output check expect the wrong value, so a run
	// must fail; the self-test uses it to prove the checks bite.
	corrupt bool
	// child marks a process started by runChildren to measure its share
	// of the run.
	child bool
}

// sizes fixes the shape of every workload. fullSizes is what the command
// runs; the self-test shrinks it.
type sizes struct {
	Procs       int     `json:"procs"`
	SetupReps   int     `json:"setup_reps"`
	WarmupFrac  float64 `json:"warmup_frac"`
	Window      int     `json:"closed_window"`
	ArgBytes    int     `json:"closed_arg_bytes"`
	ChainRate   float64 `json:"chain_rate_per_s"`
	ChainBytes  int     `json:"chain_bytes"`
	TailSample  int     `json:"chain_tail_sample"`
	DagLeaves   int     `json:"dag_leaves"`
	DagFanIn    int     `json:"dag_fan_in"`
	DagWorkers  int     `json:"dag_workers"`
	DagChunks   int     `json:"dag_chunks"`
	ChunkMin    int     `json:"dag_chunk_min_bytes"`
	ChunkMax    int     `json:"dag_chunk_max_bytes"`
	QueryMin    int     `json:"dag_query_min_bytes"`
	QueryMax    int     `json:"dag_query_max_bytes"`
	ToolBytes   int     `json:"dag_tool_bytes"`
	SimProcess  int     `json:"sim_process_tasks"`
	SimFanIn    int     `json:"sim_fan_in"`
	SimWorkers  int     `json:"sim_workers"`
	SimCores    int     `json:"sim_cores_per_worker"`
	RTRounds    int     `json:"protocol_rt_rounds"`
	HashRepeats int     `json:"hash_repeats"`
}

func fullSizes() sizes {
	return sizes{
		Procs:       4,
		SetupReps:   9,
		WarmupFrac:  0.1,
		Window:      256,
		ArgBytes:    32,
		ChainRate:   1500,
		ChainBytes:  64,
		TailSample:  64,
		DagLeaves:   256,
		DagFanIn:    8,
		DagWorkers:  2,
		DagChunks:   64,
		ChunkMin:    16 << 10,
		ChunkMax:    64 << 10,
		QueryMin:    32,
		QueryMax:    128,
		ToolBytes:   256 << 10,
		SimProcess:  2000,
		SimFanIn:    9,
		SimWorkers:  25,
		SimCores:    4,
		RTRounds:    20000,
		HashRepeats: 5,
	}
}

// workload is one benchmark workload: its runner, which measures one phase
// of dur wall time, and the metric its tracing overhead is judged on.
type workload struct {
	run     func(cfg *config, dur time.Duration, traced bool) (*outcome, error)
	primary string
	higher  bool // whether higher values of primary are better
}

var workloads = map[string]workload{
	"invoke_closed":     {runInvokeClosed, "tasks_per_s", true},
	"invoke_chain_open": {runChainOpen, "latency_p50_ms", false},
	"dag_cold":          {runDagCold, "makespan_s", false},
	"sim_topeft":        {runSimTopEFT, "makespan_s", false},
}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted int64
	failed    int64
	// problems describes failed checks (capped), for the error report.
	problems []string
	// e2e holds the end-to-end metrics except rss_peak_mb, which main
	// reads once at the end of the process.
	e2e map[string]float64
	// layer holds the per-layer metrics; only traced phases fill it.
	layer map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation with a description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	return execute(cfg, stdout, stderr)
}

// execute measures and prints the report as the last line of stdout,
// returning the process exit code: 0 only when every check passed.
func execute(cfg *config, stdout, stderr io.Writer) int {
	rep, err := measure(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: invoke_closed, invoke_chain_open, dag_cold or sim_topeft")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "wall time one run measures")
	tr := fs.Int("trace", 0, "1 reports per-layer metrics, measured in traced phases")
	child := fs.Bool("child", false, "measure in this process only (set by the parent process)")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"),
		"directory for worker caches and generated inputs; a tmpfs mount avoids disk noise")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[*wl]; !ok {
		return nil, fmt.Errorf("unknown workload %q", *wl)
	}
	if *seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if *tr != 0 && *tr != 1 {
		return nil, errors.New("--trace must be 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// The benchmark runs from the checkout root; refuse anywhere else, so a
	// directory holding only the benchmark never yields a result.
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	dir, err := filepath.Abs(*workDir)
	if err != nil {
		return nil, err
	}
	return &config{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *tr == 1,
		child:    *child,
		root:     root,
		workDir:  filepath.Join(dir, fmt.Sprintf("%s-%d", *wl, os.Getpid())),
		sizes:    fullSizes(),
	}, nil
}

// measure runs the configured workload and assembles the report. The work
// directory is created for the run and removed afterwards.
func measure(cfg *config, stdout, stderr io.Writer) (*report, error) {
	spread, err := makeSpreadDir(cfg.workDir)
	if err != nil {
		return nil, err
	}
	cfg.spread = spread
	defer os.RemoveAll(cfg.workDir)
	env := recordEnv(cfg)
	envLine, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	if !env.Tmpfs && !cfg.child {
		fmt.Fprintf(stderr, "perfbench: warning: work dir %s is on %s, not tmpfs; disk timing adds noise\n",
			cfg.workDir, env.WorkDirFS)
	}

	wl := workloads[cfg.workload]
	dur := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{Metrics: map[string]metric{}}
	if !cfg.trace && !cfg.child && cfg.sizes.Procs > 1 {
		return runChildren(cfg, stderr)
	}
	if !cfg.trace {
		out, err := wl.run(cfg, dur, false)
		if err != nil {
			return nil, err
		}
		out.e2e["rss_peak_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: out.e2e[m.name], Unit: m.unit}
		}
		finish(rep, out, stderr)
		return rep, nil
	}

	// Untraced and traced phases run in the order A B B A, so drift over
	// the process's life (warming caches, a growing heap) does not land on
	// one side of the overhead comparison.
	var phases [4]*outcome
	for i, traced := range []bool{false, true, true, false} {
		out, err := wl.run(cfg, dur/4, traced)
		if err != nil {
			return nil, err
		}
		phases[i] = out
	}
	traced := phases[2]
	b := (phases[0].e2e[wl.primary] + phases[3].e2e[wl.primary]) / 2
	t := (phases[1].e2e[wl.primary] + phases[2].e2e[wl.primary]) / 2
	if b > 0 {
		// Positive overhead means tracing made the primary metric worse.
		if wl.higher {
			traced.layer["trace.overhead_pct"] = (b - t) / b * 100
		} else {
			traced.layer["trace.overhead_pct"] = (t - b) / b * 100
		}
	}
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: traced.layer[m.name], Unit: m.unit}
	}
	printLayerTable(stdout, cfg.workload, rep.Metrics)
	merged := &outcome{}
	for _, ph := range phases {
		merged.attempted += ph.attempted
		merged.failed += ph.failed
		merged.problems = append(merged.problems, ph.problems...)
	}
	finish(rep, merged, stderr)
	return rep, nil
}

// finish fills the report's accounting fields and rejects non-finite values.
func finish(rep *report, out *outcome, stderr io.Writer) {
	rep.Attempted = out.attempted
	rep.Failed = out.failed
	rep.Correct = out.failed == 0 && out.attempted > 0
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[name] = metric{Value: 0, Unit: m.Unit}
			rep.Correct = false
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", name)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
}

// printLayerTable prints one line per per-layer metric: its value, the
// workload it belongs to and the end-to-end metric it should move.
func printLayerTable(w io.Writer, workload string, ms map[string]metric) {
	fmt.Fprintf(w, "per-layer metrics of %s; a layer this workload does not exercise reads 0\n", workload)
	fmt.Fprintf(w, "  %-28s %14s %-6s %-40s %s\n", "metric", "value", "unit", "belongs to", "moves")
	for _, m := range perLayer {
		v := ms[m.name]
		fmt.Fprintf(w, "  %-28s %14s %-6s %-40s %s\n",
			m.name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit, strings.Join(m.workloads, ","), m.moves)
	}
}

// metricDef describes one reported metric.
type metricDef struct {
	name string
	unit string
	// workloads that exercise the layer, and the end-to-end metric it
	// should move (per-layer metrics only).
	workloads []string
	moves     string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "tasks_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "makespan_s", unit: "s"},
	{name: "cpu_ms_per_task", unit: "ms"},
	{name: "rss_peak_mb", unit: "MB"},
}

const (
	wClosed = "invoke_closed"
	wOpen   = "invoke_chain_open"
	wDag    = "dag_cold"
	wSim    = "sim_topeft"
)

var (
	invokes = []string{wClosed, wOpen}
	cluster = []string{wClosed, wOpen, wDag}
	dagOnly = []string{wDag}
	simOnly = []string{wSim}
	every   = []string{wClosed, wOpen, wDag, wSim}
)

var perLayer = []metricDef{
	{"core.call_us", "us", cluster, "invoke_closed tasks_per_s, dag_cold makespan_s"},
	{"core.schedule_passes", "count", cluster, "invoke_closed tasks_per_s, dag_cold makespan_s"},
	{"core.schedule_busy_ms", "ms", cluster, "invoke_closed tasks_per_s, dag_cold makespan_s"},
	{"core.dispatch_wait_p50_ms", "ms", cluster, "dag_cold makespan_s, invoke_chain_open latency_p50_ms"},
	{"core.requeues", "count", cluster, "failed operations"},
	{"core.tasks_failed", "count", cluster, "failed operations"},
	{"protocol.rt_us", "us", invokes, "invoke_closed tasks_per_s"},
	{"files.declare_local_ms", "ms", dagOnly, "dag_cold setup_s"},
	{"hashing.tree_mb_per_s", "MB/s", dagOnly, "dag_cold setup_s"},
	{"files.declare_us", "us", dagOnly, "dag_cold makespan_s"},
	{"replica.transfers.url", "count", dagOnly, "dag_cold makespan_s"},
	{"replica.transfers.manager", "count", dagOnly, "dag_cold makespan_s"},
	{"replica.transfers.worker", "count", dagOnly, "dag_cold makespan_s"},
	{"replica.bytes.url", "bytes", dagOnly, "dag_cold makespan_s"},
	{"replica.bytes.manager", "bytes", dagOnly, "dag_cold makespan_s"},
	{"replica.bytes.worker", "bytes", dagOnly, "dag_cold makespan_s"},
	{"replica.transfer_ms.url", "ms", dagOnly, "dag_cold makespan_s"},
	{"replica.transfer_ms.manager", "ms", dagOnly, "dag_cold makespan_s"},
	{"replica.transfer_ms.worker", "ms", dagOnly, "dag_cold makespan_s"},
	{"replica.transfer_failures", "count", dagOnly, "dag_cold makespan_s"},
	{"replica.transfer_retries", "count", dagOnly, "dag_cold makespan_s"},
	{"worker.task_ms", "ms", cluster, "dag_cold makespan_s, dag_cold cpu_ms_per_task"},
	{"worker.stage_ms", "ms", dagOnly, "dag_cold makespan_s"},
	{"worker.busy_frac", "ratio", cluster, "dag_cold makespan_s"},
	{"worker.peer_serves", "count", dagOnly, "dag_cold makespan_s"},
	{"worker.peer_serve_bytes", "bytes", dagOnly, "dag_cold makespan_s"},
	{"worker.peer_fetch_retries", "count", dagOnly, "dag_cold makespan_s"},
	{"cache.hits", "count", dagOnly, "dag_cold makespan_s"},
	{"cache.misses", "count", dagOnly, "dag_cold makespan_s"},
	{"cache.hit_ratio", "ratio", dagOnly, "dag_cold makespan_s"},
	{"cache.inserts", "count", cluster, "dag_cold makespan_s"},
	{"cache.insert_bytes", "bytes", dagOnly, "dag_cold makespan_s"},
	{"cache.evictions", "count", dagOnly, "dag_cold makespan_s"},
	{"cache.mem_inserts", "count", []string{wOpen}, "invoke_chain_open latency_p50_ms"},
	{"cache.mem_hits", "count", []string{wOpen}, "invoke_chain_open latency_p50_ms"},
	{"cache.mem_spills", "count", []string{wOpen}, "invoke_chain_open latency_p50_ms (expected 0)"},
	{"cache.disk_inserts", "count", cluster, "invoke_chain_open latency_p50_ms (expected 0 there)"},
	{"sandbox.created", "count", dagOnly, "dag_cold cpu_ms_per_task"},
	{"sandbox.destroy_failures", "count", dagOnly, "dag_cold cpu_ms_per_task"},
	{"serverless.library_ready_ms", "ms", invokes, "setup_s on the invoke workloads"},
	{"serverless.calls", "count", invokes, "tasks_per_s on the invoke workloads"},
	{"httpsource.fetches", "count", dagOnly, "dag_cold makespan_s"},
	{"sim.build_ms", "ms", simOnly, "sim_topeft setup_s"},
	{"sim.run_s", "s", simOnly, "sim_topeft makespan_s"},
	{"sim.schedule_passes", "count", simOnly, "sim_topeft makespan_s"},
	{"sim.trace_events", "count", simOnly, "sim_topeft makespan_s"},
	{"sim.virtual_makespan_s", "s", simOnly, "changes only with a scheduling decision"},
	{"trace.events_per_task", "count", every, "rss_peak_mb, cpu_ms_per_task (invoke_closed), latency_p90_ms"},
	{"runtime.gc_cycles", "count", every, "rss_peak_mb, cpu_ms_per_task (invoke_closed), latency_p90_ms"},
	{"runtime.gc_pause_ms", "ms", every, "rss_peak_mb, cpu_ms_per_task (invoke_closed), latency_p90_ms"},
	{"runtime.alloc_kb_per_task", "KB", every, "rss_peak_mb, cpu_ms_per_task (invoke_closed), latency_p90_ms"},
	{"runtime.heap_peak_mb", "MB", every, "rss_peak_mb, cpu_ms_per_task (invoke_closed), latency_p90_ms"},
	{"gen.late_p99_ms", "ms", []string{wOpen}, "invoke_chain_open latency (generator health)"},
	{"gen.late_max_ms", "ms", []string{wOpen}, "invoke_chain_open latency (generator health)"},
	{"gen.samples", "count", []string{wOpen}, "must equal the number of requests"},
	{"latency_p99_ms", "ms", every, "tail of the latency_p50_ms distribution"},
	{"latency_p99_beyond", "count", every, "samples beyond latency_p99_ms"},
	{"latency_p999_ms", "ms", every, "tail of the latency_p50_ms distribution"},
	{"latency_p999_beyond", "count", every, "samples beyond latency_p999_ms"},
	{"trace.overhead_pct", "%", every, "primary metric, traced vs untraced"},
}
