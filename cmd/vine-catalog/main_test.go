package main

import (
	"bufio"
	"errors"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"taskvine/internal/catalog"
)

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-ttl", "soon"},
		{"extra"},
	} {
		var stderr strings.Builder
		if err := run(args, io.Discard, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if !strings.Contains(stderr.String(), "Usage of vine-catalog") {
			t.Errorf("run(%q) printed no usage: %q", args, stderr.String())
		}
	}
}

// TestRunServesAndExpiresAnEntry: the catalog lists an advertised manager
// until its entry goes stale, and stops serving on an interrupt.
func TestRunServesAndExpiresAnEntry(t *testing.T) {
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-ttl", "1s"}, outW, io.Discard)
		outW.Close()
	}()
	line, err := bufio.NewReader(outR).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the serving line: %v", err)
	}
	go func() { _, _ = io.Copy(io.Discard, outR) }()
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[0] != "catalog" {
		t.Fatalf("unexpected serving line %q", line)
	}
	addr := fields[3]

	if err := catalog.Update(addr, catalog.Entry{Name: "proj", Addr: "10.0.0.1:9123", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	entries, err := catalog.Query(addr, "proj")
	if err != nil || len(entries) != 1 || entries[0].Addr != "10.0.0.1:9123" {
		t.Fatalf("query after update = %+v, %v; want the one entry", entries, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err := catalog.Query(addr, "proj")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry never expired: %+v", entries)
		}
		time.Sleep(50 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after interrupt = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run kept serving after an interrupt")
	}
}
