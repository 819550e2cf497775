package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quiet sends the command's rendered output to /dev/null for one test.
func quiet(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = stdout
		devnull.Close()
	})
}

// TestRunBuiltinWithAndWithoutPlacement: a small TopEFT builtin renders
// both views and writes a trace CSV in which every task ends.
func TestRunBuiltinWithAndWithoutPlacement(t *testing.T) {
	quiet(t)
	csv := filepath.Join(t.TempDir(), "trace.csv")
	if err := run("topeft", nil, 0, 0.05, true, true, csv, 80); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	w, err := builtinWorkload("topeft", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), ",task-end,"); n != len(w.Tasks) {
		t.Fatalf("trace has %d task ends, want %d", n, len(w.Tasks))
	}
}

// TestRunJSONWorkload runs the package comment's example schema.
func TestRunJSONWorkload(t *testing.T) {
	quiet(t)
	path := filepath.Join(t.TempDir(), "workload.json")
	decl := `{
	  "files": [
	    {"id": "env.tar", "size": 61000000, "kind": "manager"},
	    {"id": "env", "size": 61000000, "kind": "mini", "mini_inputs": ["env.tar"], "unpack_rate": 20000000},
	    {"id": "data", "size": 1000000, "kind": "url", "lifetime": "workflow"}
	  ],
	  "tasks": [
	    {"id": 1, "inputs": ["env", "data"], "outputs": [{"id": "part", "size": 1000}], "runtime": 10, "cores": 1},
	    {"id": 2, "inputs": ["env", "part"], "runtime": 5}
	  ],
	  "worker_template": {"count": 2, "cores": 4, "disk": 50000000000}
	}`
	if err := os.WriteFile(path, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", []string{path}, 2, 0, false, false, "", 80); err != nil {
		t.Fatal(err)
	}
}

func TestRunUsageErrors(t *testing.T) {
	quiet(t)
	if err := run("", nil, 0, 0.05, false, false, "", 80); err == nil {
		t.Fatal("no workload accepted")
	}
	if err := run("nope", nil, 0, 0.05, false, false, "", 80); err == nil || !strings.Contains(err.Error(), "unknown builtin") {
		t.Fatalf("unknown builtin: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"files": [{"id": "f", "kind": "floppy"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", []string{bad}, 0, 0, false, false, "", 80); err == nil {
		t.Fatal("unknown file kind accepted")
	}
}
