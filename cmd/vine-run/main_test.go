package main

import (
	"path/filepath"
	"testing"
)

// TestRunWorkflowWithRetiredKeys runs a small DAG (a buffer feeds a
// producer writing a temp, which two consumers read) from a document that
// still carries task keys older versions accepted; it must load and run.
func TestRunWorkflowWithRetiredKeys(t *testing.T) {
	path := filepath.Join("testdata", "retired-keys.json")
	wf, err := loadWorkflow(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(wf.Files) != 2 || len(wf.Tasks) != 2 || wf.Tasks[1].Repeat != 2 {
		t.Fatalf("loaded %+v", wf)
	}
	// run fails unless every one of the three submitted tasks succeeds.
	if err := run(path, 1, "", true, ""); err != nil {
		t.Fatal(err)
	}
}
