package taskvine

// End-to-end integration tests: a real manager and real workers speaking
// the wire protocol over localhost TCP, executing real commands in real
// sandboxes — the full production code path at laptop scale.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"taskvine/internal/httpsource"
)

// cluster spins up a manager and n workers for a test.
type cluster struct {
	m       *Manager
	workers []*Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func startCluster(t *testing.T, n int, libs []*Library) *cluster {
	t.Helper()
	m, err := NewManager(ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{m: m, cancel: cancel}
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			ManagerAddr: m.Addr(),
			WorkDir:     filepath.Join(t.TempDir(), fmt.Sprintf("w%d", i)),
			Capacity:    Resources{Cores: 4, Memory: 4 * GB, Disk: GB},
			ID:          fmt.Sprintf("w%d", i),
			Libraries:   libs,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		m.Close()
		cancel()
		c.wg.Wait()
	})
	return c
}

func waitN(t *testing.T, m *Manager, n int) []*Result {
	t.Helper()
	out := make([]*Result, 0, n)
	for len(out) < n {
		r, err := m.WaitTimeout(30 * time.Second)
		if err != nil {
			t.Fatalf("waited for %d results, got %d: %v", n, len(out), err)
		}
		out = append(out, r)
	}
	return out
}

func TestSingleCommandTask(t *testing.T) {
	c := startCluster(t, 1, nil)
	task := NewTask("echo hello from taskvine")
	id, err := c.m.Submit(task)
	if err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if r.TaskID != id || !r.OK || r.ExitCode != 0 {
		t.Fatalf("result = %+v", r)
	}
	if !strings.Contains(string(r.Output), "hello from taskvine") {
		t.Fatalf("output = %q", r.Output)
	}
	if !c.m.Empty() {
		t.Fatal("manager not empty after completion")
	}
}

func TestBufferInputAndTempOutput(t *testing.T) {
	c := startCluster(t, 1, nil)
	query := c.m.DeclareBuffer([]byte("ACGTACGT"), CacheTask)
	out := c.m.DeclareTemp()
	task := NewTask("tr A X < query > result.txt")
	task.AddInput(query, "query")
	task.AddOutput(out, "result.txt")
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if !r.OK {
		t.Fatalf("task failed: %s (output %q)", r.Error, r.Output)
	}
	// The temp output lives in the cluster; fetch it back explicitly.
	data, err := c.m.FetchFile(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "XCGTXCGT" {
		t.Fatalf("temp content = %q", data)
	}
}

func TestLocalFileOutputReturnsToSharedFS(t *testing.T) {
	c := startCluster(t, 1, nil)
	dest := filepath.Join(t.TempDir(), "outputs", "final.txt")
	// Declaring a not-yet-existing local file as an output destination:
	// declare the parent as the file will be created by the manager.
	// DeclareFile requires existence, so create a placeholder.
	os.MkdirAll(filepath.Dir(dest), 0o755)
	os.WriteFile(dest, nil, 0o644)
	outFile, err := c.m.DeclareFile(dest, CacheWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	task := NewTask("printf 'final result' > out.txt")
	task.AddOutput(outFile, "out.txt")
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if !r.OK {
		t.Fatalf("task failed: %s", r.Error)
	}
	// The manager writes local outputs back asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, _ := os.ReadFile(dest)
		if string(b) == "final result" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("output never landed in shared fs: %q", b)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTaskChainThroughTemp(t *testing.T) {
	// Task 2 consumes task 1's temp output: the file moves (or stays)
	// within the cluster without touching the manager.
	c := startCluster(t, 2, nil)
	mid := c.m.DeclareTemp()
	final := c.m.DeclareTemp()

	t1 := NewTask("printf 'stage-one' > out")
	t1.AddOutput(mid, "out")
	if _, err := c.m.Submit(t1); err != nil {
		t.Fatal(err)
	}
	t2 := NewTask("sed s/one/two/ < in > out")
	t2.AddInput(mid, "in")
	t2.AddOutput(final, "out")
	if _, err := c.m.Submit(t2); err != nil {
		t.Fatal(err)
	}
	rs := waitN(t, c.m, 2)
	for _, r := range rs {
		if !r.OK {
			t.Fatalf("task %d failed: %s", r.TaskID, r.Error)
		}
	}
	data, err := c.m.FetchFile(context.Background(), final)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "stage-two" {
		t.Fatalf("final = %q", data)
	}
}

func TestURLInputAndUntarMiniTask(t *testing.T) {
	pkg, err := httpsource.Tarball(map[string][]byte{
		"bin/tool.sh": []byte("#!/bin/sh\necho tool-ran\n"),
		"data/ref":    []byte("reference-data"),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httpsource.New(&httpsource.Object{Path: "/pkg.tar", Content: pkg})
	defer srv.Close()

	c := startCluster(t, 2, nil)
	archive, err := c.m.DeclareURL(srv.URL("/pkg.tar"), CacheWorker)
	if err != nil {
		t.Fatal(err)
	}
	unpacked, err := c.m.DeclareUntar(archive, CacheWorker)
	if err != nil {
		t.Fatal(err)
	}

	// Several tasks share the single unpacked environment.
	const n = 6
	for i := 0; i < n; i++ {
		task := NewTask("cat pkg/data/ref && sh pkg/bin/tool.sh")
		task.AddInput(unpacked, "pkg")
		if _, err := c.m.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range waitN(t, c.m, n) {
		if !r.OK {
			t.Fatalf("task failed: %s (output %q)", r.Error, r.Output)
		}
		if !strings.Contains(string(r.Output), "reference-data") ||
			!strings.Contains(string(r.Output), "tool-ran") {
			t.Fatalf("output = %q", r.Output)
		}
	}
	// The archive was fetched from the URL a bounded number of times:
	// once per worker at most, not once per task.
	if f := srv.Fetches("/pkg.tar"); f > 2 {
		t.Fatalf("archive fetched %d times for %d tasks on 2 workers", f, n)
	}
}

func TestManyTasksAcrossWorkers(t *testing.T) {
	c := startCluster(t, 3, nil)
	const n = 30
	for i := 0; i < n; i++ {
		task := NewTask(fmt.Sprintf("echo task-%d", i))
		if _, err := c.m.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	rs := waitN(t, c.m, n)
	used := map[string]bool{}
	for _, r := range rs {
		if !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
		used[r.Worker] = true
	}
	if len(used) < 2 {
		t.Fatalf("work not spread: only workers %v used", used)
	}
}

func TestFailingTaskReported(t *testing.T) {
	c := startCluster(t, 1, nil)
	task := NewTask("echo some diagnostics; exit 3")
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if r.OK || r.ExitCode != 3 {
		t.Fatalf("result = %+v", r)
	}
	if !strings.Contains(string(r.Output), "some diagnostics") {
		t.Fatalf("failure output lost: %q", r.Output)
	}
}

func TestMissingOutputFailsTask(t *testing.T) {
	c := startCluster(t, 1, nil)
	out := c.m.DeclareTemp()
	task := NewTask("true") // never creates the declared output
	task.AddOutput(out, "never.txt")
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if r.OK {
		t.Fatal("task with missing output reported OK")
	}
	if !strings.Contains(r.Error, "never.txt") {
		t.Fatalf("error does not name the missing output: %q", r.Error)
	}
}

func TestRetryOnFailure(t *testing.T) {
	c := startCluster(t, 1, nil)
	// A task that fails until its third attempt, tracked via a counter
	// file on the host filesystem.
	counter := filepath.Join(t.TempDir(), "attempts")
	task := NewTask(fmt.Sprintf(
		`n=$(cat %[1]s 2>/dev/null || echo 0); n=$((n+1)); echo $n > %[1]s; [ $n -ge 3 ]`, counter))
	task.SetRetries(5)
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if !r.OK {
		t.Fatalf("task failed despite retries: %+v", r)
	}
	b, _ := os.ReadFile(counter)
	if strings.TrimSpace(string(b)) != "3" {
		t.Fatalf("attempts = %q, want 3", b)
	}
}

func TestServerlessFunctionCalls(t *testing.T) {
	var bootMu sync.Mutex
	boots := 0
	lib := &Library{
		Name: "optimizer",
		Boot: func() error {
			bootMu.Lock()
			boots++
			bootMu.Unlock()
			return nil
		},
		Functions: map[string]Function{
			"gradient": func(args []byte) ([]byte, error) {
				var x float64
				if err := json.Unmarshal(args, &x); err != nil {
					return nil, err
				}
				return json.Marshal(2 * x)
			},
		},
	}
	c := startCluster(t, 2, []*Library{lib})
	c.m.InstallLibrary("optimizer", Resources{Cores: 1})

	const n = 20
	for i := 0; i < n; i++ {
		args, _ := json.Marshal(float64(i))
		fc := NewFunctionCall("optimizer", "gradient", args)
		if _, err := c.m.Submit(fc); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0.0
	for _, r := range waitN(t, c.m, n) {
		if !r.OK {
			t.Fatalf("function call failed: %s", r.Error)
		}
		var v float64
		json.Unmarshal(r.Output, &v)
		sum += v
	}
	want := 0.0
	for i := 0; i < n; i++ {
		want += 2 * float64(i)
	}
	if sum != want {
		t.Fatalf("sum = %v want %v", sum, want)
	}
	// The serverless point: boots happen once per worker, not once per task.
	bootMu.Lock()
	defer bootMu.Unlock()
	if boots > 2 {
		t.Fatalf("library booted %d times for %d calls on 2 workers", boots, n)
	}
}

func TestWorkerLifetimeCachePersistsAcrossWorkflows(t *testing.T) {
	blob := httpsource.SyntheticBlob("dataset", 4096)
	srv := httpsource.New(&httpsource.Object{Path: "/data", Content: blob})
	defer srv.Close()

	c := startCluster(t, 1, nil)
	data, err := c.m.DeclareURL(srv.URL("/data"), CacheWorker)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		task := NewTask("wc -c < data")
		task.AddInput(data, "data")
		if _, err := c.m.Submit(task); err != nil {
			t.Fatal(err)
		}
		r := waitN(t, c.m, 1)[0]
		if !r.OK || !strings.Contains(string(r.Output), "4096") {
			t.Fatalf("result = %+v output=%q", r, r.Output)
		}
	}
	run()
	c.m.EndWorkflow()
	run() // second workflow: object must come from the worker cache
	if f := srv.Fetches("/data"); f != 1 {
		t.Fatalf("URL fetched %d times; persistent cache not reused", f)
	}
}

func TestEndWorkflowEvictsEphemeral(t *testing.T) {
	c := startCluster(t, 1, nil)
	out := c.m.DeclareTemp()
	task := NewTask("echo x > f")
	task.AddOutput(out, "f")
	c.m.Submit(task)
	r := waitN(t, c.m, 1)[0]
	if !r.OK {
		t.Fatalf("task failed: %s", r.Error)
	}
	c.m.EndWorkflow()
	if _, err := c.m.FetchFile(context.Background(), out); err == nil {
		t.Fatal("temp survived end of workflow")
	}
}

func TestGunzipMiniTask(t *testing.T) {
	// gzip-compress content host-side, serve it, and let the worker's
	// built-in gunzip MiniTask decompress it on demand.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("compressed reference data"))
	zw.Close()
	srv := httpsource.New(&httpsource.Object{Path: "/ref.gz", Content: gz.Bytes()})
	defer srv.Close()

	c := startCluster(t, 1, nil)
	gzFile, err := c.m.DeclareURL(srv.URL("/ref.gz"), CacheWorker)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.m.DeclareGunzip(gzFile, CacheWorker)
	if err != nil {
		t.Fatal(err)
	}
	task := NewTask("cat ref")
	task.AddInput(plain, "ref")
	if _, err := c.m.Submit(task); err != nil {
		t.Fatal(err)
	}
	r := waitN(t, c.m, 1)[0]
	if !r.OK || !strings.Contains(string(r.Output), "compressed reference data") {
		t.Fatalf("result = %+v output=%q", r, r.Output)
	}
}

func TestPersistentCacheSharedAcrossManagers(t *testing.T) {
	// §3.2: worker-lifetime objects "may be shared across multiple
	// workflows controlled by distinct managers". Manager A populates the
	// cache; a fresh manager B, with a worker over the same directory,
	// reuses it without touching the archive again.
	blob := httpsource.SyntheticBlob("shared-dataset", 2048)
	srv := httpsource.New(&httpsource.Object{Path: "/ds", Content: blob})
	defer srv.Close()
	workDir := t.TempDir()

	runWorkflow := func(managerLabel string, adopted bool) {
		m, err := NewManager(ManagerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w, err := NewWorker(WorkerConfig{
			ManagerAddr: m.Addr(),
			WorkDir:     workDir,
			Capacity:    Resources{Cores: 2, Memory: GB, Disk: GB},
			ID:          "persistent-worker",
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()
		defer func() { cancel(); <-done }()
		if adopted {
			// The worker re-reports its cache at registration, so the new
			// manager sees the object before any task asks for it.
			deadline := time.Now().Add(10 * time.Second)
			for {
				ws := m.Status().Workers
				if len(ws) == 1 && ws[0].CachedFiles > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: worker's cache not adopted at registration: %+v", managerLabel, ws)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}

		ds, err := m.DeclareURL(srv.URL("/ds"), CacheWorker)
		if err != nil {
			t.Fatal(err)
		}
		task := NewTask("wc -c < ds")
		task.AddInput(ds, "ds")
		if _, err := m.Submit(task); err != nil {
			t.Fatal(err)
		}
		r, err := m.WaitTimeout(30 * time.Second)
		if err != nil {
			t.Fatalf("%s: %v", managerLabel, err)
		}
		if !r.OK || !strings.Contains(string(r.Output), "2048") {
			t.Fatalf("%s: result = %+v output=%q", managerLabel, r, r.Output)
		}
	}
	runWorkflow("manager A", false)
	runWorkflow("manager B", true)
	if f := srv.Fetches("/ds"); f != 1 {
		t.Fatalf("dataset fetched %d times across two managers; content-addressed cache not shared", f)
	}
}

func TestCustomMiniTaskWithCredential(t *testing.T) {
	// Figure 6's pattern: a user-defined MiniTask performs a custom
	// transfer/transform using a credential that must NOT be cached
	// beyond the task, while the data it produces IS cached and shared.
	c := startCluster(t, 1, nil)
	cred := c.m.DeclareBuffer([]byte("SECRET-TOKEN"), CacheTask)
	fetch := NewTask(`grep -q SECRET proxy509.pem && printf 'fetched payload' > output`)
	fetch.AddInput(cred, "proxy509.pem")
	fetched, err := c.m.DeclareMiniTask(fetch, CacheWorker)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		task := NewTask("cat data")
		task.AddInput(fetched, "data")
		if _, err := c.m.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range waitN(t, c.m, 3) {
		if !r.OK || !strings.Contains(string(r.Output), "fetched payload") {
			t.Fatalf("result = %+v output=%q", r, r.Output)
		}
	}
	// Identical declarations share one product name cluster-wide (§3.2).
	fetch2 := NewTask(`grep -q SECRET proxy509.pem && printf 'fetched payload' > output`)
	fetch2.AddInput(cred, "proxy509.pem")
	again, err := c.m.DeclareMiniTask(fetch2, CacheWorker)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID() != fetched.ID() {
		t.Fatalf("identical MiniTasks named differently: %s vs %s", again.ID(), fetched.ID())
	}
}
