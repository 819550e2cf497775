package core

// Goroutine-leak regression test for Manager.Close: every goroutine the
// manager starts — accept loop, connection readers, result delivery,
// status server, background fetches — must be gone once Close returns.
// This is the runtime counterpart of the static goroleak analyzer in
// tools/vinelint.

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// coreGoroutines counts live goroutines with a frame in this package.
// The calling test's own goroutine is included, which cancels out in the
// before/after comparison.
func coreGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "taskvine/internal/core.") {
			count++
		}
	}
	return count
}

func TestCloseLeavesNoManagerGoroutines(t *testing.T) {
	// Let stragglers from earlier tests drain before taking the baseline.
	time.Sleep(50 * time.Millisecond)
	before := coreGoroutines()

	h := newHarness(t, 1, Config{})
	if _, err := h.m.ServeStatus("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.m.Submit(command("true")); err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, h.m); !r.OK {
		t.Fatalf("task failed: %s", r.Error)
	}
	h.m.Close() // idempotent; the harness cleanup closes again

	deadline := time.Now().Add(5 * time.Second)
	for {
		n := coreGoroutines()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			sz := runtime.Stack(buf, true)
			t.Fatalf("%d manager goroutines still alive after Close (baseline %d):\n%s",
				n, before, buf[:sz])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
