package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: all bytes offered to the network are eventually delivered, and
// no flow completes before its ideal minimum time (size / min capacity).
func TestQuickNetworkConservation(t *testing.T) {
	f := func(sizes []uint32, bwSeed uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		e := NewEngine()
		n := NewNetwork(e)
		srcBW := float64(bwSeed%9+1) * 100
		src := NewEndpoint("src", srcBW)
		delivered := 0
		var total float64
		for _, s := range sizes {
			size := float64(s%100000) + 1
			total += size
			dst := NewEndpoint("d", 1e9)
			n.StartFlow(src, dst, size, 0, func(int) { delivered++ }, 0)
		}
		end := e.Run(0)
		if delivered != len(sizes) {
			return false
		}
		// Aggregate throughput cannot exceed source bandwidth.
		minTime := total / srcBW
		return end >= minTime-1e-6 && n.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: per-flow cap is never exceeded: a single flow of known size
// takes at least size/PerFlowBW.
func TestQuickPerFlowCap(t *testing.T) {
	f := func(size uint32, cap8 uint8) bool {
		e := NewEngine()
		n := NewNetwork(e)
		cap := float64(cap8%50+1) * 10
		src := NewEndpoint("src", 1e9)
		src.PerFlowBW = cap
		dst := NewEndpoint("dst", 1e9)
		sz := float64(size%1000000) + 1
		var done float64
		n.StartFlow(src, dst, sz, 0, func(int) { done = e.Now() }, 0)
		e.Run(0)
		return done >= sz/cap-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: under a seeded random sequence of flow starts and completions,
// the incrementally maintained state always equals a from-scratch one:
// every live flow's rate is what recomputeFlow gives it, and every
// endpoint lists exactly the live flows touching it, at the positions the
// flows record (a flow from an endpoint to itself is listed twice).
func TestNetworkIncrementalStateMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			n := NewNetwork(e)
			eps := make([]*Endpoint, 6)
			for i := range eps {
				eps[i] = NewEndpoint(fmt.Sprint("ep", i), float64(rng.Intn(900)+100))
				eps[i].OverheadPerFlow = float64(rng.Intn(3)) * 0.05
				if rng.Intn(2) == 0 {
					eps[i].PerFlowBW = float64(rng.Intn(200) + 20)
				}
			}
			done := map[int]bool{}
			for step := 0; step < 2000; step++ {
				if rng.Intn(3) > 0 {
					id := n.nextID + 1 // the Run below starts it
					src, dst := eps[rng.Intn(len(eps))], eps[rng.Intn(len(eps))]
					n.StartFlow(src, dst, float64(rng.Intn(5000)+1), 0, func(int) { done[id] = true }, 0)
				}
				e.Run(e.Now() + rng.Float64())
				checkNetworkState(t, n, eps, done)
			}
			e.Run(0)
			checkNetworkState(t, n, eps, done)
			if n.InFlight() != 0 || len(done) != n.nextID {
				t.Fatalf("%d flows in flight, %d of %d done after draining", n.InFlight(), len(done), n.nextID)
			}
		})
	}
}

func checkNetworkState(t *testing.T, n *Network, eps []*Endpoint, done map[int]bool) {
	t.Helper()
	if got, want := len(n.flows), n.nextID-len(done); got != want {
		t.Fatalf("%d live flows, want %d", got, want)
	}
	for i, f := range n.flows {
		if f.pos != i || done[f.id] {
			t.Fatalf("flow %d at %d records pos %d, done %v", f.id, i, f.pos, done[f.id])
		}
		fresh := *f
		recomputeFlow(&fresh)
		if fresh.rate != f.rate {
			t.Fatalf("flow %d rate %v, recomputed %v", f.id, f.rate, fresh.rate)
		}
	}
	for _, ep := range eps {
		want, out, in := 0, 0, 0
		for _, f := range n.flows {
			if f.src == ep {
				want++
				out++
			}
			if f.dst == ep {
				want++
				in++
			}
		}
		if len(ep.flows) != want || ep.out != out || ep.in != in {
			t.Fatalf("%s lists %d flows (out %d, in %d), want %d (out %d, in %d)",
				ep.Name, len(ep.flows), ep.out, ep.in, want, out, in)
		}
		for i, f := range ep.flows {
			if f.pos < 0 || (f.src != ep || f.srcPos != i) && (f.dst != ep || f.dstPos != i) {
				t.Fatalf("%s lists flow %d at %d, which it does not touch there", ep.Name, f.id, i)
			}
		}
	}
}
