package worker

// Unit tests driving a worker directly through the wire protocol with a
// scripted fake manager, covering the mechanisms the real manager relies
// on: cache puts/gets, asynchronous URL and peer fetches, MiniTask
// materialization, task execution, and resource enforcement.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"taskvine/internal/httpsource"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
	"taskvine/internal/serverless"
	"taskvine/internal/taskspec"
)

// fakeManager accepts one worker registration and exposes the connection.
type fakeManager struct {
	ln   net.Listener
	conn *protocol.Conn
	reg  *protocol.Message
}

// writeHeader writes a payload-announcing JSON control line straight to a
// fake peer's socket, so the peer can follow it with a short or stalled
// payload that a Conn would refuse to send.
func writeHeader(nc net.Conn, m *protocol.Message) {
	line, _ := json.Marshal(m)
	nc.Write(append(line, '\n'))
}

func startFake(t *testing.T) *fakeManager {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeManager{ln: ln}
	t.Cleanup(func() {
		ln.Close()
		if f.conn != nil {
			f.conn.Close()
		}
	})
	return f
}

func (f *fakeManager) accept(t *testing.T) {
	t.Helper()
	nc, err := f.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	f.conn = protocol.NewConn(nc)
	msg, _, err := f.conn.Recv()
	if err != nil || msg.Type != protocol.TypeRegister {
		t.Fatalf("registration: %+v err=%v", msg, err)
	}
	f.reg = msg
}

// recvUntil receives messages until one matches the predicate, failing the
// test on timeout. Payloads are fully read and attached.
func (f *fakeManager) recvUntil(t *testing.T, what string, pred func(*protocol.Message, []byte) bool) (*protocol.Message, []byte) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		m, payload, err := f.conn.Recv()
		if err != nil {
			t.Fatalf("waiting for %s: %v", what, err)
		}
		var body []byte
		if payload != nil {
			body, err = io.ReadAll(payload)
			if err != nil {
				t.Fatal(err)
			}
		}
		if pred(m, body) {
			return m, body
		}
	}
}

func startWorker(t *testing.T, f *fakeManager, libs *serverless.Registry) *Worker {
	t.Helper()
	w, err := New(Config{
		ManagerAddr: f.ln.Addr().String(),
		WorkDir:     t.TempDir(),
		Capacity:    resources.R{Cores: 2, Memory: resources.GB, Disk: 100 * resources.MB},
		ID:          "test-worker",
		Libraries:   libs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	f.accept(t)
	return w
}

func TestRegistrationAnnouncesCapacityAndTransferAddr(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	if f.reg.WorkerID != "test-worker" || f.reg.Capacity == nil || f.reg.Capacity.Cores != 2 {
		t.Fatalf("registration = %+v", f.reg)
	}
	if f.reg.TransferAddr == "" {
		t.Fatal("no transfer address announced")
	}
}

func TestPutThenGet(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	data := []byte("cached object bytes")
	err := f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "file-obj", Size: int64(len(data)),
		Lifetime: 1, TransferID: "t-1",
	}, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	up, _ := f.recvUntil(t, "cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "file-obj"
	})
	if up.Status != protocol.StatusOK || up.TransferID != "t-1" {
		t.Fatalf("cache-update = %+v", up)
	}
	// Fetch it back.
	if err := f.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "file-obj"}); err != nil {
		t.Fatal(err)
	}
	m, body := f.recvUntil(t, "data", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeData
	})
	if m.CacheName != "file-obj" || !bytes.Equal(body, data) {
		t.Fatalf("get returned %q", body)
	}
}

func TestGetMissingObjectReportsError(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	f.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "absent"})
	m, _ := f.recvUntil(t, "error", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeError
	})
	if m.CacheName != "absent" {
		t.Fatalf("error = %+v", m)
	}
}

func TestFetchURLAsync(t *testing.T) {
	src := httpsource.New(&httpsource.Object{Path: "/d", Content: []byte("downloaded")})
	defer src.Close()
	f := startFake(t)
	startWorker(t, f, nil)
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchURL, CacheName: "url-d", URL: src.URL("/d"),
		Size: 10, TransferID: "t-url",
	})
	up, _ := f.recvUntil(t, "cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "url-d"
	})
	if up.Status != protocol.StatusOK || up.Size != 10 || up.TransferID != "t-url" {
		t.Fatalf("cache-update = %+v", up)
	}
}

func TestFetchURLFailureReported(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchURL, CacheName: "url-bad",
		URL: "http://127.0.0.1:1/nope", Size: -1, TransferID: "t-bad",
	})
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "url-bad"
	})
	if up.Status != protocol.StatusFailed || up.Error == "" {
		t.Fatalf("cache-update = %+v", up)
	}
}

func TestPeerTransfer(t *testing.T) {
	// Worker A holds an object; worker B fetches it peer-to-peer.
	fa := startFake(t)
	wa := startWorker(t, fa, nil)
	fb := startFake(t)
	startWorker(t, fb, nil)

	data := []byte("peer to peer payload")
	fa.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "shared-obj", Size: int64(len(data)), Lifetime: 1,
	}, bytes.NewReader(data))
	fa.recvUntil(t, "A cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "shared-obj"
	})

	fb.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "shared-obj",
		PeerAddr: wa.PeerAddr(), Size: int64(len(data)), TransferID: "t-peer",
	})
	up, _ := fb.recvUntil(t, "B cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "shared-obj"
	})
	if up.Status != protocol.StatusOK || up.TransferID != "t-peer" {
		t.Fatalf("cache-update = %+v", up)
	}
	// Confirm content via get.
	fb.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "shared-obj"})
	_, body := fb.recvUntil(t, "data", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeData
	})
	if !bytes.Equal(body, data) {
		t.Fatalf("peer content = %q", body)
	}
}

func TestPeerTransferOfDirectory(t *testing.T) {
	fa := startFake(t)
	wa := startWorker(t, fa, nil)
	fb := startFake(t)
	startWorker(t, fb, nil)

	// Materialize a directory object at A via a MiniTask.
	spec := &taskspec.Spec{Kind: taskspec.KindMini, Command: "mkdir -p output/sub && echo deep > output/sub/f"}
	spec.Outputs = []taskspec.Mount{{FileID: "dir-tree", Name: "output"}}
	fa.conn.Send(&protocol.Message{Type: protocol.TypeMini, CacheName: "dir-tree", Spec: spec, Lifetime: 1})
	fa.recvUntil(t, "A mini done", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "dir-tree" && m.Status == protocol.StatusOK
	})

	fb.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "dir-tree",
		PeerAddr: wa.PeerAddr(), Size: -1, TransferID: "t-dir",
	})
	up, _ := fb.recvUntil(t, "B cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "dir-tree"
	})
	if up.Status != protocol.StatusOK {
		t.Fatalf("directory peer transfer failed: %+v", up)
	}
	// Run a task at B that reads through the directory.
	task := &taskspec.Spec{ID: 5, Kind: taskspec.KindCommand, Command: "cat tree/sub/f"}
	task.AddInput("dir-tree", "tree")
	fb.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: 5, Spec: task})
	res, _ := fb.recvUntil(t, "task complete", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeComplete && m.TaskID == 5
	})
	if res.Status != protocol.StatusOK || !strings.Contains(string(res.Result), "deep") {
		t.Fatalf("complete = %+v output=%q", res, res.Result)
	}
}

func TestMiniTaskMaterialization(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	// Stage the input first.
	f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "buffer-in", Size: 5, Lifetime: 1,
	}, strings.NewReader("hello"))
	f.recvUntil(t, "input staged", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "buffer-in"
	})
	spec := &taskspec.Spec{Kind: taskspec.KindMini, Command: "tr a-z A-Z < input > output"}
	spec.AddInput("buffer-in", "input")
	spec.Outputs = []taskspec.Mount{{FileID: "task-upper", Name: "output"}}
	f.conn.Send(&protocol.Message{Type: protocol.TypeMini, CacheName: "task-upper", Spec: spec, Lifetime: 2})
	up, _ := f.recvUntil(t, "mini done", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "task-upper"
	})
	if up.Status != protocol.StatusOK || up.Size != 5 {
		t.Fatalf("mini cache-update = %+v", up)
	}
	f.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "task-upper"})
	_, body := f.recvUntil(t, "data", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeData
	})
	if string(body) != "HELLO" {
		t.Fatalf("mini product = %q", body)
	}
}

func TestMiniTaskFailureReported(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	spec := &taskspec.Spec{Kind: taskspec.KindMini, Command: "exit 9"}
	spec.Outputs = []taskspec.Mount{{FileID: "task-never", Name: "output"}}
	f.conn.Send(&protocol.Message{Type: protocol.TypeMini, CacheName: "task-never", Spec: spec})
	up, _ := f.recvUntil(t, "mini failure", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "task-never"
	})
	if up.Status != protocol.StatusFailed {
		t.Fatalf("mini cache-update = %+v", up)
	}
}

func TestTaskOverAllocationReturned(t *testing.T) {
	// Dispatching a task larger than the worker's capacity is a manager
	// bug the worker survives by returning the task (§2.1).
	f := startFake(t)
	startWorker(t, f, nil)
	spec := &taskspec.Spec{ID: 9, Kind: taskspec.KindCommand, Command: "true",
		Resources: resources.R{Cores: 64}}
	f.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: 9, Spec: spec})
	res, _ := f.recvUntil(t, "returned task", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeComplete && m.TaskID == 9
	})
	if res.Status != protocol.StatusFailed || !strings.Contains(res.Error, "exceeds free") {
		t.Fatalf("complete = %+v", res)
	}
}

func TestKillRunningTask(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	spec := &taskspec.Spec{ID: 11, Kind: taskspec.KindCommand, Command: "sleep 30"}
	f.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: 11, Spec: spec})
	time.Sleep(100 * time.Millisecond)
	f.conn.Send(&protocol.Message{Type: protocol.TypeKill, TaskID: 11})
	res, _ := f.recvUntil(t, "killed task", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeComplete && m.TaskID == 11
	})
	if res.Status == protocol.StatusOK && res.ExitCode == 0 {
		t.Fatalf("killed task reported clean success: %+v", res)
	}
}

func TestEndWorkflowPurgesEphemeral(t *testing.T) {
	f := startFake(t)
	w := startWorker(t, f, nil)
	f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "wf-obj", Size: 2, Lifetime: 1, // workflow
	}, strings.NewReader("ab"))
	f.recvUntil(t, "staged", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "wf-obj"
	})
	f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "keep-obj", Size: 2, Lifetime: 2, // worker
	}, strings.NewReader("cd"))
	f.recvUntil(t, "staged2", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "keep-obj"
	})
	f.conn.Send(&protocol.Message{Type: protocol.TypeEndWorkflow})
	deadline := time.Now().Add(5 * time.Second)
	for w.Cache().Contains("wf-obj") {
		if time.Now().After(deadline) {
			t.Fatal("workflow object survived end-workflow")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !w.Cache().Contains("keep-obj") {
		t.Fatal("worker-lifetime object purged at end-workflow")
	}
}

func TestReleaseShutsDownCleanly(t *testing.T) {
	f := startFake(t)
	ln := f.ln
	w, err := New(Config{
		ManagerAddr: ln.Addr().String(),
		WorkDir:     t.TempDir(),
		Capacity:    resources.R{Cores: 1},
		ID:          "releasable",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	f.accept(t)
	f.conn.Send(&protocol.Message{Type: protocol.TypeRelease})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("release returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not shut down on release")
	}
}

func TestHeartbeatEcho(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	f.conn.Send(&protocol.Message{Type: protocol.TypeHeartbeat})
	m, _ := f.recvUntil(t, "heartbeat", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeHeartbeat
	})
	if m.WorkerID != "test-worker" {
		t.Fatalf("heartbeat = %+v", m)
	}
}

func TestFunctionTaskWithoutLibraryFails(t *testing.T) {
	f := startFake(t)
	startWorker(t, f, nil)
	spec := &taskspec.Spec{ID: 21, Kind: taskspec.KindFunction, Library: "nope", Function: "f"}
	f.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: 21, Spec: spec})
	res, _ := f.recvUntil(t, "complete", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeComplete && m.TaskID == 21
	})
	if res.Status != protocol.StatusFailed || !strings.Contains(res.Error, "not compiled") {
		t.Fatalf("complete = %+v", res)
	}
}

func TestLibraryDeployAndInvoke(t *testing.T) {
	libs := serverless.NewRegistry()
	libs.Register(&serverless.Library{
		Name: "math",
		Functions: map[string]serverless.Function{
			"double": func(args []byte) ([]byte, error) {
				return append(args, args...), nil
			},
		},
	})
	f := startFake(t)
	startWorker(t, f, libs)

	lib := &taskspec.Spec{ID: 30, Kind: taskspec.KindLibrary, Library: "math",
		Resources: resources.R{Cores: 1}}
	f.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: 30, Spec: lib})
	ready, _ := f.recvUntil(t, "library-ready", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeComplete && m.TaskID == 30
	})
	if ready.Status != "library-ready" {
		t.Fatalf("deploy = %+v", ready)
	}

	call := &taskspec.Spec{ID: 31, Kind: taskspec.KindFunction, Library: "math",
		Function: "double", Args: []byte("ab"), Resources: resources.R{Cores: 1}}
	f.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: 31, Spec: call})
	res, _ := f.recvUntil(t, "invoke result", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeComplete && m.TaskID == 31
	})
	if res.Status != protocol.StatusOK || string(res.Result) != "abab" {
		t.Fatalf("invoke = %+v result=%q", res, res.Result)
	}
}

func TestAdoptedCacheAnnouncedOnRegister(t *testing.T) {
	dir := t.TempDir()
	// First life: store a worker-lifetime object.
	f1 := startFake(t)
	w1, err := New(Config{ManagerAddr: f1.ln.Addr().String(), WorkDir: dir,
		Capacity: resources.R{Cores: 1}, ID: "persistent"})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); w1.Run(ctx1) }()
	f1.accept(t)
	f1.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "file-sticky", Size: 3, Lifetime: 2,
	}, strings.NewReader("xyz"))
	f1.recvUntil(t, "staged", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "file-sticky"
	})
	cancel1()
	<-done1

	// Second life: the replacement worker must announce the object.
	f2 := startFake(t)
	w2, err := New(Config{ManagerAddr: f2.ln.Addr().String(), WorkDir: dir,
		Capacity: resources.R{Cores: 1}, ID: "persistent"})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); w2.Run(ctx2) }()
	t.Cleanup(func() { cancel2(); <-done2 })
	f2.accept(t)
	up, _ := f2.recvUntil(t, "adoption announcement", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "file-sticky"
	})
	if up.Status != protocol.StatusOK || up.Size != 3 {
		t.Fatalf("adoption = %+v", up)
	}
}

func TestEvictionReportedAsCacheInvalid(t *testing.T) {
	// A tiny cache forces eviction when a second object arrives; the
	// worker must report the victim via cache-invalid.
	f := startFake(t)
	w, err := New(Config{
		ManagerAddr:   f.ln.Addr().String(),
		WorkDir:       t.TempDir(),
		Capacity:      resources.R{Cores: 1},
		CacheCapacity: 1024,
		ID:            "tiny",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	f.accept(t)

	f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "victim", Size: 800, Lifetime: 1,
	}, bytes.NewReader(make([]byte, 800)))
	f.recvUntil(t, "victim staged", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "victim"
	})
	f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "incoming", Size: 800, Lifetime: 1,
	}, bytes.NewReader(make([]byte, 800)))
	inv, _ := f.recvUntil(t, "cache-invalid", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheInvalid
	})
	if inv.CacheName != "victim" {
		t.Fatalf("cache-invalid = %+v", inv)
	}
}
