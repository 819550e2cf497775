// Command vine-run executes a JSON-declared workflow on a TaskVine manager,
// optionally spawning local workers for self-contained runs.
//
// Usage:
//
//	vine-run [-workers N] [-listen ADDR] workflow.json
//
// The workflow document declares files and tasks:
//
//	{
//	  "files": [
//	    {"name": "archive", "type": "url",   "source": "https://...", "cache": "worker"},
//	    {"name": "sw",      "type": "untar", "of": "archive",         "cache": "worker"},
//	    {"name": "query",   "type": "buffer","content": "ACGT",       "cache": "task"},
//	    {"name": "out",     "type": "temp"}
//	  ],
//	  "tasks": [
//	    {"command": "sw/bin/tool < query > result",
//	     "inputs":  [{"file": "sw", "name": "sw"}, {"file": "query", "name": "query"}],
//	     "outputs": [{"file": "out", "name": "result"}],
//	     "cores": 1, "env": {"KEY": "VALUE"}, "retries": 2}
//	  ]
//	}
//
// File types: local, url, buffer, temp, untar, gunzip. Cache levels:
// task, workflow (default), worker.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"taskvine"
)

type fileDecl struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Source  string `json:"source,omitempty"`
	Content string `json:"content,omitempty"`
	Cache   string `json:"cache,omitempty"`
	Of      string `json:"of,omitempty"` // input of untar/gunzip
}

type mountDecl struct {
	File string `json:"file"`
	Name string `json:"name"`
}

type taskDecl struct {
	Command string            `json:"command"`
	Inputs  []mountDecl       `json:"inputs,omitempty"`
	Outputs []mountDecl       `json:"outputs,omitempty"`
	Env     map[string]string `json:"env,omitempty"`
	Cores   int               `json:"cores,omitempty"`
	Memory  int64             `json:"memory,omitempty"`
	Disk    int64             `json:"disk,omitempty"`
	Retries int               `json:"retries,omitempty"`
	Repeat  int               `json:"repeat,omitempty"`
}

type workflowDecl struct {
	Files []fileDecl `json:"files"`
	Tasks []taskDecl `json:"tasks"`
}

func main() {
	var (
		workers = flag.Int("workers", 2, "local workers to spawn (0 = external workers only)")
		listen  = flag.String("listen", "", "manager listen address (default loopback)")
		verbose = flag.Bool("v", false, "log task results as they complete")
		status  = flag.String("status", "", "also serve the monitoring endpoint on this address (e.g. 127.0.0.1:9123)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *workers, *listen, *verbose, *status); err != nil {
		log.Fatalf("vine-run: %v", err)
	}
}

// loadWorkflow reads and parses a workflow document. Keys it does not know
// are ignored, so documents written for older versions still load.
func loadWorkflow(path string) (*workflowDecl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wf workflowDecl
	if err := json.Unmarshal(raw, &wf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &wf, nil
}

func run(path string, nworkers int, listen string, verbose bool, statusAddr string) error {
	wf, err := loadWorkflow(path)
	if err != nil {
		return err
	}

	m, err := taskvine.NewManager(taskvine.ManagerConfig{ListenAddr: listen})
	if err != nil {
		return err
	}
	defer m.Close()
	fmt.Printf("manager listening on %s\n", m.Addr())
	if statusAddr != "" {
		addr, err := m.ServeStatus(statusAddr)
		if err != nil {
			return err
		}
		fmt.Printf("status endpoint on http://%s/status (vine-status %s)\n", addr, addr)
		fmt.Printf("metrics at http://%s/metrics, scheduling tables at http://%s/debug/vine\n", addr, addr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Stop local workers after the workflow finishes (LIFO: cancel first,
	// then wait).
	defer func() {
		cancel()
		wg.Wait()
	}()
	tmp, err := os.MkdirTemp("", "vine-run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for i := 0; i < nworkers; i++ {
		w, err := taskvine.NewWorker(taskvine.WorkerConfig{
			ManagerAddr: m.Addr(),
			WorkDir:     filepath.Join(tmp, fmt.Sprintf("w%d", i)),
			Capacity:    taskvine.Resources{Cores: 4, Memory: 4 * taskvine.GB, Disk: taskvine.GB},
			ID:          fmt.Sprintf("local-%d", i),
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	files, err := declareFiles(m, wf.Files)
	if err != nil {
		return err
	}
	submitted := 0
	for _, td := range wf.Tasks {
		n := td.Repeat
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			t := taskvine.NewTask(td.Command)
			for _, in := range td.Inputs {
				f, ok := files[in.File]
				if !ok {
					return fmt.Errorf("task references undeclared file %q", in.File)
				}
				t.AddInput(f, in.Name)
			}
			for _, out := range td.Outputs {
				f, ok := files[out.File]
				if !ok {
					return fmt.Errorf("task references undeclared file %q", out.File)
				}
				t.AddOutput(f, out.Name)
			}
			for k, v := range td.Env {
				t.SetEnv(k, v)
			}
			t.SetResources(taskvine.Resources{Cores: td.Cores, Memory: td.Memory, Disk: td.Disk})
			t.SetRetries(td.Retries)
			if _, err := m.Submit(t); err != nil {
				return err
			}
			submitted++
		}
	}

	okCount, failCount := 0, 0
	for i := 0; i < submitted; i++ {
		r, err := m.Wait(context.Background())
		if err != nil {
			return err
		}
		if r.OK {
			okCount++
		} else {
			failCount++
		}
		if verbose || !r.OK {
			fmt.Println(taskvine.ResultString(r))
		}
	}
	fmt.Printf("workflow complete: %d ok, %d failed\n", okCount, failCount)
	if failCount > 0 {
		return fmt.Errorf("%d task(s) failed", failCount)
	}
	return nil
}

func declareFiles(m *taskvine.Manager, decls []fileDecl) (map[string]taskvine.File, error) {
	files := make(map[string]taskvine.File)
	cacheLevel := func(s string) (taskvine.CacheLevel, error) {
		switch s {
		case "task":
			return taskvine.CacheTask, nil
		case "", "workflow":
			return taskvine.CacheWorkflow, nil
		case "worker":
			return taskvine.CacheWorker, nil
		default:
			return 0, fmt.Errorf("unknown cache level %q", s)
		}
	}
	for _, d := range decls {
		level, err := cacheLevel(d.Cache)
		if err != nil {
			return nil, fmt.Errorf("file %q: %w", d.Name, err)
		}
		var f taskvine.File
		switch d.Type {
		case "local":
			f, err = m.DeclareFile(d.Source, level)
		case "url":
			f, err = m.DeclareURL(d.Source, level)
		case "buffer":
			f = m.DeclareBuffer([]byte(d.Content), level)
		case "temp":
			f = m.DeclareTemp()
		case "untar", "gunzip":
			of, ok := files[d.Of]
			if !ok {
				return nil, fmt.Errorf("file %q: %q must be declared first", d.Name, d.Of)
			}
			if d.Type == "untar" {
				f, err = m.DeclareUntar(of, level)
			} else {
				f, err = m.DeclareGunzip(of, level)
			}
		default:
			return nil, fmt.Errorf("file %q: unknown type %q", d.Name, d.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("file %q: %w", d.Name, err)
		}
		files[d.Name] = f
	}
	return files, nil
}
