// Command vine-sim runs a JSON-declared workload through the discrete-event
// cluster simulator and renders the paper's task-view and worker-view
// graphs as text, plus a transfer summary.
//
// Usage:
//
//	vine-sim [-limit N] [-task-view] [-worker-view] [-csv FILE] workload.json
//	vine-sim -builtin blast|envshare|distribution|topeft|colmena|bgd [-scale F] ...
//
// The JSON schema mirrors internal/sim's Workload:
//
//	{
//	  "files": [
//	    {"id": "env.tar", "size": 610000000, "kind": "manager"},
//	    {"id": "env", "size": 610000000, "kind": "mini",
//	     "mini_inputs": ["env.tar"], "unpack_rate": 20000000}
//	  ],
//	  "tasks": [
//	    {"id": 1, "inputs": ["env"], "runtime": 10, "cores": 1}
//	  ],
//	  "workers": [
//	    {"id": "w0", "cores": 4, "disk": 50000000000, "join_time": 0}
//	  ],
//	  "worker_template": {"count": 50, "cores": 4, "disk": 50000000000}
//	}
//
// File kinds: url, sharedfs, manager, temp, mini.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"taskvine/internal/experiments"
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/sim"
	"taskvine/internal/trace"
	"taskvine/internal/workloads"
)

type fileDecl struct {
	ID         string   `json:"id"`
	Size       int64    `json:"size"`
	Kind       string   `json:"kind"`
	Source     string   `json:"source,omitempty"`
	Lifetime   string   `json:"lifetime,omitempty"`
	MiniInputs []string `json:"mini_inputs,omitempty"`
	UnpackRate float64  `json:"unpack_rate,omitempty"`
}

type outputDecl struct {
	ID   string `json:"id"`
	Size int64  `json:"size"`
}

type taskDecl struct {
	ID            int          `json:"id"`
	Inputs        []string     `json:"inputs,omitempty"`
	Outputs       []outputDecl `json:"outputs,omitempty"`
	Runtime       float64      `json:"runtime"`
	Cores         int          `json:"cores,omitempty"`
	Category      string       `json:"category,omitempty"`
	Library       string       `json:"library,omitempty"`
	ReturnOutputs bool         `json:"return_outputs,omitempty"`
}

type libraryDecl struct {
	Name     string  `json:"name"`
	EnvFile  string  `json:"env_file,omitempty"`
	BootTime float64 `json:"boot_time,omitempty"`
	Cores    int     `json:"cores,omitempty"`
}

type workerDecl struct {
	ID        string   `json:"id"`
	Cores     int      `json:"cores"`
	Disk      int64    `json:"disk,omitempty"`
	JoinTime  float64  `json:"join_time,omitempty"`
	LeaveTime float64  `json:"leave_time,omitempty"`
	Prestaged []string `json:"prestaged,omitempty"`
}

type workerTemplate struct {
	Count       int     `json:"count"`
	Cores       int     `json:"cores"`
	Disk        int64   `json:"disk,omitempty"`
	RampSeconds float64 `json:"ramp_seconds,omitempty"`
}

type workloadDecl struct {
	Files          []fileDecl      `json:"files"`
	Tasks          []taskDecl      `json:"tasks"`
	Libraries      []libraryDecl   `json:"libraries,omitempty"`
	Workers        []workerDecl    `json:"workers,omitempty"`
	WorkerTemplate *workerTemplate `json:"worker_template,omitempty"`
}

func main() {
	var (
		limit      = flag.Int("limit", 0, "worker-to-worker transfer limit (0 = paper default 3)")
		taskView   = flag.Bool("task-view", false, "render the task-view graph")
		workerView = flag.Bool("worker-view", true, "render the worker-view graph")
		csvPath    = flag.String("csv", "", "write the raw event trace as CSV")
		builtin    = flag.String("builtin", "", "run a built-in workload: blast, envshare, distribution, topeft, colmena, bgd")
		scale      = flag.Float64("scale", 0.2, "scale for built-in workloads")
		width      = flag.Int("width", 100, "render width in columns")
	)
	flag.Parse()
	if err := run(*builtin, flag.Args(), *limit, *scale, *taskView, *workerView, *csvPath, *width); err != nil {
		fmt.Fprintf(os.Stderr, "vine-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(builtin string, args []string, limit int, scale float64, taskView, workerView bool, csvPath string, width int) error {
	var w *sim.Workload
	switch {
	case builtin != "":
		var err error
		if w, err = builtinWorkload(builtin, scale); err != nil {
			return err
		}
	case len(args) == 1:
		raw, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		var decl workloadDecl
		if err := json.Unmarshal(raw, &decl); err != nil {
			return fmt.Errorf("parsing %s: %w", args[0], err)
		}
		if w, err = buildWorkload(&decl); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need a workload.json or -builtin NAME")
	}

	limits := policy.Limits{}
	if limit != 0 {
		limits.WorkerSource = limit
	}
	c := sim.NewCluster(w, sim.DefaultParams(), limits)
	makespan := c.Run()
	events := c.Trace().Events()
	fmt.Printf("simulated %d tasks on %d workers: makespan %.1fs (%d/%d completed)\n\n",
		len(w.Tasks), len(w.Workers), makespan, c.CompletedTasks(), len(w.Tasks))
	opts := trace.RenderOptions{Width: width}
	if taskView {
		if err := trace.RenderTaskView(os.Stdout, events, opts); err != nil {
			return err
		}
		fmt.Println()
	}
	if workerView {
		if err := trace.RenderWorkerView(os.Stdout, events, opts); err != nil {
			return err
		}
		fmt.Println()
	}
	if err := trace.RenderSummary(os.Stdout, events); err != nil {
		return err
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, events); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", csvPath)
	}
	if c.CompletedTasks() != len(w.Tasks) {
		return fmt.Errorf("%d task(s) never completed", len(w.Tasks)-c.CompletedTasks())
	}
	return nil
}

func builtinWorkload(name string, scale float64) (*sim.Workload, error) {
	s := experiments.Scale(scale)
	n := func(v int) int { return s.N(v) }
	switch name {
	case "blast":
		cfg := workloads.DefaultBlast()
		cfg.Tasks, cfg.Workers = n(cfg.Tasks), n(cfg.Workers)
		return workloads.Blast(cfg), nil
	case "envshare":
		cfg := workloads.DefaultEnvSharing(true)
		cfg.Tasks, cfg.Workers = n(cfg.Tasks), n(cfg.Workers)
		return workloads.EnvSharing(cfg), nil
	case "distribution":
		cfg := workloads.DefaultDistribution()
		cfg.Workers = n(cfg.Workers)
		return workloads.Distribution(cfg), nil
	case "topeft":
		cfg := workloads.DefaultTopEFT(false)
		cfg.ProcessTasks, cfg.Workers = n(cfg.ProcessTasks), n(cfg.Workers)
		return workloads.TopEFT(cfg), nil
	case "colmena":
		cfg := workloads.DefaultColmena()
		cfg.InferenceTasks, cfg.SimulationTasks = n(cfg.InferenceTasks), n(cfg.SimulationTasks)
		cfg.Workers = n(cfg.Workers)
		return workloads.Colmena(cfg), nil
	case "bgd":
		cfg := workloads.DefaultBGD()
		cfg.FunctionCalls, cfg.Workers = n(cfg.FunctionCalls), n(cfg.Workers)
		return workloads.BGD(cfg), nil
	default:
		return nil, fmt.Errorf("unknown builtin %q", name)
	}
}

func buildWorkload(decl *workloadDecl) (*sim.Workload, error) {
	w := &sim.Workload{Files: make(map[string]*sim.File)}
	for _, fd := range decl.Files {
		kind, err := fileKind(fd.Kind)
		if err != nil {
			return nil, fmt.Errorf("file %s: %w", fd.ID, err)
		}
		lt, err := lifetime(fd.Lifetime)
		if err != nil {
			return nil, fmt.Errorf("file %s: %w", fd.ID, err)
		}
		source := fd.Source
		if source == "" {
			source = "/" + fd.ID
		}
		w.Files[fd.ID] = &sim.File{
			ID: fd.ID, Size: fd.Size, Kind: kind, SourcePath: source,
			Lifetime: lt, MiniInputs: fd.MiniInputs, UnpackRate: fd.UnpackRate,
		}
	}
	for i, td := range decl.Tasks {
		id := td.ID
		if id == 0 {
			id = i + 1
		}
		t := &sim.Task{
			ID: id, Inputs: td.Inputs, Runtime: td.Runtime, Cores: td.Cores,
			Category: td.Category, Library: td.Library, ReturnOutputs: td.ReturnOutputs,
		}
		for _, od := range td.Outputs {
			if w.Files[od.ID] == nil {
				w.Files[od.ID] = &sim.File{ID: od.ID, Size: od.Size, Kind: sim.Produced}
			}
			t.Outputs = append(t.Outputs, sim.Output{ID: od.ID, Size: od.Size})
		}
		w.Tasks = append(w.Tasks, t)
	}
	for _, ld := range decl.Libraries {
		w.Libraries = append(w.Libraries, &sim.Library{
			Name: ld.Name, EnvFile: ld.EnvFile, BootTime: ld.BootTime, Cores: ld.Cores,
		})
	}
	for _, wd := range decl.Workers {
		disk := wd.Disk
		if disk == 0 {
			disk = 100e9
		}
		w.Workers = append(w.Workers, sim.WorkerSpec{
			ID: wd.ID, Cores: wd.Cores, Disk: disk, JoinTime: wd.JoinTime,
			LeaveTime: wd.LeaveTime, Prestaged: wd.Prestaged,
		})
	}
	if tpl := decl.WorkerTemplate; tpl != nil {
		disk := tpl.Disk
		if disk == 0 {
			disk = 100e9
		}
		for i := 0; i < tpl.Count; i++ {
			join := 0.0
			if tpl.RampSeconds > 0 && tpl.Count > 1 {
				join = tpl.RampSeconds * float64(i) / float64(tpl.Count)
			}
			w.Workers = append(w.Workers, sim.WorkerSpec{
				ID: fmt.Sprintf("w%03d", len(w.Workers)), Cores: tpl.Cores,
				Disk: disk, JoinTime: join,
			})
		}
	}
	if len(w.Workers) == 0 {
		return nil, fmt.Errorf("no workers declared")
	}
	return w, nil
}

func fileKind(s string) (sim.SourceKind, error) {
	switch s {
	case "url", "":
		return sim.FromURL, nil
	case "sharedfs", "shared-fs":
		return sim.FromSharedFS, nil
	case "manager":
		return sim.FromManager, nil
	case "temp", "produced":
		return sim.Produced, nil
	case "mini", "minitask":
		return sim.MiniProduct, nil
	default:
		return 0, fmt.Errorf("unknown file kind %q", s)
	}
}

func lifetime(s string) (files.Lifetime, error) {
	switch s {
	case "task":
		return files.LifetimeTask, nil
	case "", "workflow":
		return files.LifetimeWorkflow, nil
	case "worker":
		return files.LifetimeWorker, nil
	default:
		return 0, fmt.Errorf("unknown lifetime %q", s)
	}
}
