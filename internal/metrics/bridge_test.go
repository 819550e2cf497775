package metrics

import (
	"fmt"
	"strings"
	"testing"

	"taskvine/internal/trace"
)

// TestTraceMetricsParity is the guard rail of the observability layer: every
// trace kind must have a real String() name and a decided metric mapping, and
// every mapped family must actually be registered. Adding a trace kind
// without wiring it fails here, not in production. Naming conventions and
// VineMetrics field assignment are checked statically by the metricparity
// analyzer in tools/vinelint, not here.
func TestTraceMetricsParity(t *testing.T) {
	reg := NewRegistry()
	ForRegistry(reg)
	registered := map[string]bool{}
	for _, name := range reg.FamilyNames() {
		registered[name] = true
	}

	kinds := trace.AllKinds()
	if len(kinds) == 0 {
		t.Fatal("AllKinds returned nothing")
	}
	for _, k := range kinds {
		if s := k.String(); s == fmt.Sprintf("kind(%d)", int(k)) {
			t.Errorf("kind %d has no String() name", int(k))
		}
		fams := KindFamilies(k)
		if fams == nil {
			t.Errorf("kind %v has no metric mapping in KindFamilies; decide its families in bridge.go", k)
			continue
		}
		for _, name := range fams {
			if !registered[name] {
				t.Errorf("kind %v maps to %q, which ForRegistry does not register", k, name)
			}
		}
	}

	// The acceptance floor: the shared instrument set spans the subsystems.
	if len(registered) < 20 {
		t.Errorf("only %d families registered, want >= 20", len(registered))
	}
	for _, prefix := range []string{"vine_tasks_", "vine_transfer", "vine_cache_", "vine_chaos_", "vine_sandbox", "vine_batch_"} {
		found := false
		for name := range registered {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no family with prefix %q; a subsystem lost its instruments", prefix)
		}
	}
}

// TestBridgeCountsEveryKind drives one event of every kind through a bridged
// log and checks each mapped counter moved and the per-kind trace counter
// matches the log length.
func TestBridgeCountsEveryKind(t *testing.T) {
	reg := NewRegistry()
	vm := ForRegistry(reg)
	log := trace.NewLog()
	BridgeTrace(log, vm)

	kinds := trace.AllKinds()
	for i, k := range kinds {
		log.Add(trace.Event{
			Time: float64(i), Kind: k, Worker: "w1", TaskID: i,
			File: "f", Bytes: 100, Source: "worker:w2",
		})
	}
	snap := TakeSnapshot(reg)

	total := 0.0
	for _, k := range kinds {
		got := snap.LabeledValue("vine_trace_events_total", map[string]string{"kind": k.String()})
		if got != 1 {
			t.Errorf("vine_trace_events_total{kind=%q} = %v, want 1", k.String(), got)
		}
		total += got
		for _, fam := range KindFamilies(k) {
			moved := snap.Value(fam)
			for _, vals := range snap.SumOver(fam, "source") {
				moved += vals
			}
			if moved == 0 {
				t.Errorf("kind %v did not move its family %q", k, fam)
			}
		}
	}
	if total != float64(log.Len()) {
		t.Errorf("sum of trace event counters = %v, log has %d events", total, log.Len())
	}
}

func TestBridgeNilArgsAreSafe(t *testing.T) {
	BridgeTrace(nil, nil)
	log := trace.NewLog()
	BridgeTrace(log, nil)
	log.Add(trace.Event{Kind: trace.TaskEnd}) // must not panic
}

// TestBridgeTransferSources checks the transfer families land on each
// source kind's child, through the per-kind cache for the well-known
// kinds and by a fresh lookup for any other, and that a kind never seen
// exports no child.
func TestBridgeTransferSources(t *testing.T) {
	reg := NewRegistry()
	vm := ForRegistry(reg)
	log := trace.NewLog()
	BridgeTrace(log, vm)
	sources := []string{"worker:w1", "worker:w2", "url", "shared-fs", "", "tape", "tape", "url"}
	for _, src := range sources {
		log.Add(trace.Event{Kind: trace.TransferStart, Source: src})
		log.Add(trace.Event{Kind: trace.TransferEnd, Source: src, Bytes: 10})
	}
	log.Add(trace.Event{Kind: trace.TransferFailed, Source: "url"})
	snap := TakeSnapshot(reg)
	want := map[string]float64{"worker": 2, "url": 2, "shared-fs": 1, "unknown": 1, "tape": 2}
	for _, fam := range []string{"vine_transfers_started_total", "vine_transfers_completed_total"} {
		got := snap.SumOver(fam, "source")
		if len(got) != len(want) {
			t.Errorf("%s has sources %v, want %v", fam, got, want)
		}
		for kind, n := range want {
			if got[kind] != n {
				t.Errorf("%s{source=%q} = %v, want %v", fam, kind, got[kind], n)
			}
		}
	}
	if got := snap.SumOver("vine_transfer_bytes_total", "source")["worker"]; got != 20 {
		t.Errorf("worker transfer bytes = %v, want 20", got)
	}
	if got := snap.SumOver("vine_transfers_failed_total", "source"); len(got) != 1 || got["url"] != 1 {
		t.Errorf("failed transfers by source = %v, want only url: 1", got)
	}
}
