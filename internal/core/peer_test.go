package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/metrics"
	"taskvine/internal/resources"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// TestPeerServesAreChargedTransfers: every byte a worker serves to a peer
// belongs to a transfer the manager started and charged to that worker as
// its source, so the per-source transfer limit holds on real runs. A large
// object with two live holders is fetched by a third worker; each worker
// counts its serves on its own registry, and each count must equal the
// TransferStart events naming that worker as the source.
func TestPeerServesAreChargedTransfers(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	regs := map[string]*metrics.Registry{}
	var stops []func()
	start := func(id string, capacity resources.R) {
		t.Helper()
		reg := metrics.NewRegistry()
		w, err := worker.New(worker.Config{
			ManagerAddr: h.m.Addr(),
			WorkDir:     t.TempDir(),
			Capacity:    capacity,
			ID:          id,
			Metrics:     reg,
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
		stop := func() { cancel(); <-done }
		t.Cleanup(stop)
		regs[id] = reg
		stops = append(stops, stop)
	}
	// The holders are too small for the consumer below, so it must run on
	// the fetcher, which joins once both holders have the object.
	small := resources.R{Cores: 4, Memory: resources.GB, Disk: resources.GB}
	start("holder-a", small)
	start("holder-b", small)
	waitWorkers(t, h.m, 2)

	buf, err := h.m.Files().DeclareBuffer(make([]byte, 5<<20), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.m.ReplicateFile(buf.ID, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(readyHolders(h.m, buf.ID)) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("holders = %v, want two", readyHolders(h.m, buf.ID))
		}
		time.Sleep(10 * time.Millisecond)
	}
	start("fetcher", resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB})

	spec := command("wc -c < data")
	spec.AddInput(buf.ID, "data")
	spec.Resources = resources.R{Cores: 1, Memory: 2 * resources.GB}
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, h.m); !r.OK || r.Worker != "fetcher" {
		t.Fatalf("consumer result = %+v, want success on the fetcher", r)
	}

	// Stop everything first: a worker counts a serve after its last byte
	// is on the socket, and Run returns only once in-flight serves drain.
	h.m.Close()
	for _, stop := range stops {
		stop()
	}
	charged := map[string]int64{}
	fetcherFromPeer := false
	for _, e := range h.m.Trace().Events() {
		if e.Kind != trace.TransferStart || e.File != buf.ID {
			continue
		}
		if id, ok := strings.CutPrefix(e.Source, "worker:"); ok {
			charged[id]++
			fetcherFromPeer = fetcherFromPeer || e.Worker == "fetcher"
		}
	}
	if !fetcherFromPeer {
		t.Fatal("the fetcher's input did not come from a peer; the test exercised nothing")
	}
	for id, reg := range regs {
		if got := metrics.ForRegistry(reg).PeerServes.Value(); got != charged[id] {
			t.Errorf("%s served %d peer transfers, manager charged it with %d", id, got, charged[id])
		}
	}
}
