package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"taskvine"
	"taskvine/internal/hashing"
	"taskvine/internal/httpsource"
)

// dagInputs are the generated inputs of dag_cold.
type dagInputs struct {
	dataDir   string
	dataBytes int64
	tarball   []byte
	queries   [][]byte
	// want is the SHA-256 of the root object the DAG must produce: the
	// software package's header, then every leaf's output (its chunk and
	// its query) in leaf order.
	want [32]byte
}

const toolPath = "/sw.tar"

// makeDagInputs writes the chunk dataset under dir and builds the software
// tarball, the queries and the expected root checksum from the seed.
func makeDagInputs(cfg *config, dir string) (*dagInputs, error) {
	s := cfg.sizes
	rng := rand.New(rand.NewSource(cfg.seed))
	randBytes := func(lo, hi int) []byte {
		b := make([]byte, lo+rng.Intn(hi-lo+1))
		rng.Read(b)
		return b
	}
	hdr := []byte(fmt.Sprintf("perfbench seed %d %x\n", cfg.seed, randBytes(8, 8)))
	tool := randBytes(s.ToolBytes, s.ToolBytes)
	tarball, err := httpsource.Tarball(map[string][]byte{"hdr": hdr, "bin/tool": tool})
	if err != nil {
		return nil, err
	}
	in := &dagInputs{dataDir: filepath.Join(dir, "dataset"), tarball: tarball}
	if err := os.MkdirAll(in.dataDir, 0o755); err != nil {
		return nil, err
	}
	chunks := make([][]byte, s.DagChunks)
	for i := range chunks {
		chunks[i] = randBytes(s.ChunkMin, s.ChunkMax)
		if err := os.WriteFile(filepath.Join(in.dataDir, fmt.Sprintf("c%d", i)), chunks[i], 0o644); err != nil {
			return nil, err
		}
		in.dataBytes += int64(len(chunks[i]))
	}
	root := sha256.New()
	root.Write(hdr)
	for i := 0; i < s.DagLeaves; i++ {
		q := randBytes(s.QueryMin, s.QueryMax)
		in.queries = append(in.queries, q)
		root.Write(chunks[i%len(chunks)])
		root.Write(q)
	}
	copy(in.want[:], root.Sum(nil))
	return in, nil
}

// runDagCold runs the DAG on a fresh cluster per iteration until dur has
// passed (at least once) and reports medians over iterations. Each
// iteration works in a directory of its own, in a block group of its own
// where the filesystem allows, removed as soon as its cluster is down.
func runDagCold(cfg *config, dur time.Duration, traced bool) (*outcome, error) {
	out := newOutcome()
	phase := "untraced"
	if traced {
		phase = "traced"
	}
	dir := filepath.Join(cfg.workDir, phase)
	if _, err := makeSpreadDir(dir); err != nil {
		return nil, err
	}
	in, err := makeDagInputs(cfg, dir)
	if err != nil {
		return nil, err
	}
	srv := httpsource.New(&httpsource.Object{Path: toolPath, Content: in.tarball})
	defer srv.Close()

	var probe *runtimeProbe
	if traced {
		probe = startRuntimeProbe()
	}
	var setup, makespan, cpu, p50, p90, perSec []float64
	var lastLat []float64
	var tasks int64
	start := time.Now()
	for it := 0; it == 0 || time.Since(start) < dur; it++ {
		runtime.GC()
		rec := newRecorder(traced)
		// ext4 picks a directory's block group from a hash of its name, so
		// the name is unique across processes: a run must not land in the
		// groups where the previous runs freed their inodes.
		iterDir := filepath.Join(dir, fmt.Sprintf("iter%d-%d", os.Getpid(), it))
		st, err := dagIteration(cfg, in, srv, iterDir, rec, out)
		removeAll(iterDir)
		if err != nil {
			return nil, err
		}
		setup = append(setup, st.setup.Seconds())
		makespan = append(makespan, st.makespan.Seconds())
		cpu = append(cpu, ms(st.cpu)/float64(st.tasks))
		perSec = append(perSec, float64(st.tasks)/st.makespan.Seconds())
		p50 = append(p50, quantile(st.lat, 0.5))
		p90 = append(p90, quantile(st.lat, 0.9))
		tasks += int64(st.tasks)
		lastLat = st.lat
		if traced {
			for k, v := range st.layer {
				out.layer[k] = v
			}
		}
	}
	out.e2e["setup_s"] = median(setup)
	out.e2e["makespan_s"] = median(makespan)
	out.e2e["cpu_ms_per_task"] = median(cpu)
	out.e2e["tasks_per_s"] = median(perSec)
	out.e2e["latency_p50_ms"] = median(p50)
	out.e2e["latency_p90_ms"] = median(p90)
	if traced {
		probe.finish(out.layer, tasks)
		tails(out.layer, lastLat)
		rate, err := hashRate(in, cfg.sizes.HashRepeats)
		if err != nil {
			return nil, err
		}
		out.layer["hashing.tree_mb_per_s"] = rate
	}
	return out, nil
}

// dagStats is one iteration's measurements.
type dagStats struct {
	setup, makespan, cpu time.Duration
	tasks                int
	lat                  []float64
	layer                map[string]float64
}

// dagIteration sets a fresh cluster up, runs the whole DAG, fetches and
// checks the root, and tears the cluster down.
func dagIteration(cfg *config, in *dagInputs, srv *httpsource.Server, dir string, rec *recorder, out *outcome) (*dagStats, error) {
	s := cfg.sizes
	st := &dagStats{layer: map[string]float64{}}
	fetches0 := srv.Fetches(toolPath)

	t0 := time.Now()
	r, err := startRig(dir, s.DagWorkers, taskvine.Resources{Cores: 1, Memory: taskvine.GB, Disk: taskvine.GB}, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m := r.m
	url, err := m.DeclareURL(srv.URL(toolPath), taskvine.CacheWorker)
	if err != nil {
		return nil, err
	}
	sw, err := m.DeclareUntar(url, taskvine.CacheWorker)
	if err != nil {
		return nil, err
	}
	tl := time.Now()
	data, err := m.DeclareFile(in.dataDir, taskvine.CacheWorker)
	if err != nil {
		return nil, err
	}
	declareLocal := time.Since(tl)
	queries := make([]taskvine.File, len(in.queries))
	for i, q := range in.queries {
		td := rec.begin()
		queries[i] = m.DeclareBuffer(q, taskvine.CacheTask)
		rec.end("files.declare", td)
	}
	st.setup = time.Since(t0)

	cpu0 := cpuTime()
	ts := time.Now()
	submitted := 0
	submit := func(t *taskvine.Task) error {
		at := rec.begin()
		id, err := m.Submit(t)
		if err != nil {
			return err
		}
		rec.call(at, id)
		submitted++
		return nil
	}
	temp := func() taskvine.File {
		td := rec.begin()
		f := m.DeclareTemp()
		rec.end("files.declare", td)
		return f
	}
	level := make([]taskvine.File, len(in.queries))
	for i := range level {
		level[i] = temp()
		t := taskvine.NewTask(fmt.Sprintf("cat data/c%d q > out", i%s.DagChunks))
		t.AddInput(data, "data")
		t.AddInput(queries[i], "q")
		t.AddOutput(level[i], "out")
		t.SetCategory("leaf")
		if err := submit(t); err != nil {
			return nil, err
		}
	}
	// The merge tree mounts the unpacked software package, as an analysis
	// step would; the root task prepends the package's header.
	for len(level) > 1 {
		var next []taskvine.File
		for i := 0; i < len(level); i += s.DagFanIn {
			group := level[i:min(i+s.DagFanIn, len(level))]
			names := make([]string, len(group))
			for k := range group {
				names[k] = fmt.Sprintf("h%d", k)
			}
			args := names
			if len(level) <= s.DagFanIn {
				args = append([]string{"sw/hdr"}, names...)
			}
			outFile := temp()
			t := taskvine.NewTask("cat " + strings.Join(args, " ") + " > out")
			t.AddInput(sw, "sw")
			for k, f := range group {
				t.AddInput(f, names[k])
			}
			t.AddOutput(outFile, "out")
			t.SetCategory("merge")
			if err := submit(t); err != nil {
				return nil, err
			}
			next = append(next, outFile)
		}
		level = next
	}
	root := level[0]

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for range submitted {
		res, err := m.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("waiting for DAG results: %w", err)
		}
		out.attempted++
		st.tasks++
		if !res.OK {
			out.fail("DAG task %d failed: %s %s", res.TaskID, res.Error, res.Output)
		}
	}
	body, err := m.FetchFile(ctx, root)
	st.makespan = time.Since(ts)
	st.cpu = cpuTime() - cpu0
	// A task's latency runs from its start at a worker to its end. Time
	// from submission would mostly measure the task's place in the DAG,
	// which the makespan already reports.
	st.lat = taskRunMS(m.Trace().Events())
	out.attempted++
	want := in.want
	if cfg.corrupt {
		want[0] ^= 1
	}
	if err != nil {
		out.fail("fetching the DAG root: %v", err)
	} else if got := sha256.Sum256(body); !bytes.Equal(got[:], want[:]) {
		out.fail("DAG root checksum %x, want %x (%d bytes)", got, want, len(body))
	}

	if rec.on {
		clusterLayers(r, rec, st.layer)
		st.layer["files.declare_local_ms"] = ms(declareLocal)
		st.layer["files.declare_us"] = rec.p50("files.declare")
		st.layer["httpsource.fetches"] = float64(srv.Fetches(toolPath) - fetches0)
	}
	return st, nil
}

// hashRate times HashTree over the dataset in isolation and returns the
// median rate in MB/s.
func hashRate(in *dagInputs, repeats int) (float64, error) {
	var rates []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if _, err := hashing.HashTree(in.dataDir); err != nil {
			return 0, fmt.Errorf("hashing the dataset: %w", err)
		}
		rates = append(rates, float64(in.dataBytes)/1e6/time.Since(t0).Seconds())
	}
	return median(rates), nil
}
