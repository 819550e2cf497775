package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"taskvine/internal/core"
	"taskvine/internal/resources"
)

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag", "http://x"},
		{},
		{"a:1", "b:2"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage of vine-status") {
			t.Errorf("run(%q) printed no usage: %q", args, stderr.String())
		}
	}
}

// TestRunJSONAgainstStatusServer: -json prints the status the manager's
// endpoint served, and the table view names its workers.
func TestRunJSONAgainstStatusServer(t *testing.T) {
	want := core.Status{
		Addr: "127.0.0.1:9123", TasksWaiting: 3, TasksRunning: 2, TasksDone: 7, FilesDeclared: 4,
		Workers: []core.WorkerStatus{{ID: "w0", Capacity: resources.R{Cores: 4}, RunningTasks: 2}},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/status" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(want)
	}))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-json", srv.URL}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	var got core.Status
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("-json output %q: %v", stdout.String(), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("-json printed %+v, want %+v", got, want)
	}

	stdout.Reset()
	if err := run([]string{strings.TrimPrefix(srv.URL, "http://")}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out := stdout.String(); !strings.Contains(out, "3 waiting") || !strings.Contains(out, "w0") {
		t.Fatalf("table view %q lacks the task counts or the worker", out)
	}

	if err := run([]string{"-debug", srv.URL}, &stdout, &stderr); err == nil {
		t.Fatal("-debug against a server without /debug/vine succeeded")
	}
}
