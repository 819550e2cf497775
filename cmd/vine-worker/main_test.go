package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunUsageErrors: a worker needs -manager, and rejects flags it does
// not know, before it touches the network or the disk.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workdir", t.TempDir()},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage of vine-worker") {
			t.Errorf("run(%q) printed no usage: %q", args, stderr.String())
		}
	}
}

// TestRunFailsWithoutReachableManager: a worker whose manager refuses the
// connection reports the failure.
func TestRunFailsWithoutReachableManager(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-manager", "127.0.0.1:1", "-workdir", t.TempDir(), "-cores", "1"}, &stdout, &stderr)
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("run against a closed port = %v, want a connection error", err)
	}
}
