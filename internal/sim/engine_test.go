package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(2, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 1) })
	e.At(1, func() { order = append(order, 10) }) // same time: FIFO by seq
	e.At(3, func() { order = append(order, 3) })
	end := e.Run(0)
	if end != 3 {
		t.Fatalf("end = %v", end)
	}
	want := []int{1, 10, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run(0)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(1, func() { fired = true })
	tm.Cancel()
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1, func() { ran++ })
	e.At(100, func() { ran++ })
	end := e.Run(10)
	if end != 10 || ran != 1 {
		t.Fatalf("end=%v ran=%d", end, ran)
	}
}

// An event past the limit stays queued: a later Run fires it.
func TestEngineRunLimitKeepsLaterEvents(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.At(5, func() { fired = append(fired, e.Now()) })
	e.At(20, func() { fired = append(fired, e.Now()) })
	if end := e.Run(10); end != 10 {
		t.Fatalf("Run(10) ended at %v", end)
	}
	if end := e.Run(0); end != 20 {
		t.Fatalf("Run(0) ended at %v", end)
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 20 {
		t.Fatalf("fired at %v, want [5 20]", fired)
	}
}

// A handle whose event fired is stale: cancelling it after the record was
// reused for a new event must leave the new event alone.
func TestEngineStaleCancelSparesReusedRecord(t *testing.T) {
	e := NewEngine()
	old := e.At(1, func() {})
	e.Run(0)
	fired := false
	e.At(2, func() { fired = true }) // reuses the fired event's record
	old.Cancel()
	e.Run(0)
	if !fired {
		t.Fatal("cancelling a stale handle cancelled the event that reused its record")
	}
}

func TestEngineDoubleCancel(t *testing.T) {
	e := NewEngine()
	var fired []int
	tm := e.At(1, func() { fired = append(fired, 1) })
	e.At(2, func() { fired = append(fired, 2) })
	tm.Cancel()
	tm.Cancel()
	e.At(3, func() { fired = append(fired, 3) }) // reuses the cancelled record
	tm.Cancel()
	var zero Timer
	zero.Cancel()
	e.Run(0)
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("fired %v, want [2 3]", fired)
	}
}

// An event past the limit survives a Run, with any cancelled events in
// front of it gone, and fires on the next Run.
func TestEngineRunLimitThenResume(t *testing.T) {
	e := NewEngine()
	late := 0.0
	e.At(4, func() {}).Cancel()
	e.At(30, func() { late = e.Now() })
	e.At(12, func() {}).Cancel()
	if end := e.Run(10); end != 10 || late != 0 {
		t.Fatalf("Run(10) ended at %v with the late event at %v", end, late)
	}
	if e.Idle() {
		t.Fatal("engine idle with an event pending past the limit")
	}
	if end := e.Run(0); end != 30 || late != 30 {
		t.Fatalf("Run(0) ended at %v, late event at %v; want 30, 30", end, late)
	}
}

func TestEngineIdleAfterCancellingAll(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, e.At(float64(10-i), func() { t.Fatal("cancelled event fired") }))
	}
	for _, tm := range tms {
		if e.Idle() {
			t.Fatal("idle with events pending")
		}
		tm.Cancel()
	}
	if !e.Idle() {
		t.Fatal("not idle after every event was cancelled")
	}
	e.Run(0)
}

// Property: under random scheduling, cancelling and re-arming (a cancel
// whose freed record the next call reuses, as the network's completion
// timer does), events fire in (time, scheduling order), exactly the ones
// still live, as a plain sorted list of every scheduled event would have
// them.
func TestEngineMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		e := NewEngine()
		type ev struct {
			t    float64
			seq  int
			live bool
		}
		var model []*ev
		var tms []Timer
		var fired []int
		fire := func(i int) { fired = append(fired, i) }
		seq := 0
		for op := 0; op < 200; op++ {
			switch k := rng.Intn(10); {
			case k < 6 || len(tms) == 0:
				at := float64(rng.Intn(20))
				seq++
				model = append(model, &ev{t: at, seq: seq, live: true})
				tms = append(tms, e.CallAt(at, fire, len(model)-1))
			case k < 8:
				i := rng.Intn(len(tms))
				tms[i].Cancel()
				model[i].live = false
			default:
				i := rng.Intn(len(tms))
				at := float64(rng.Intn(20))
				seq++
				tms[i].Cancel()
				model[i].live = false
				model = append(model, &ev{t: at, seq: seq, live: true})
				tms = append(tms, e.CallAt(at, fire, len(model)-1))
			}
		}
		var want []int
		for i, m := range model {
			if m.live {
				want = append(want, i)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			ma, mb := model[want[a]], model[want[b]]
			if ma.t != mb.t {
				return ma.t < mb.t
			}
			return ma.seq < mb.seq
		})
		e.Run(0)
		if !slices.Equal(fired, want) {
			t.Fatalf("round %d: fired %v, want %v", round, fired, want)
		}
		if !e.Idle() {
			t.Fatalf("round %d: not idle after Run", round)
		}
	}
}

func TestEnginePastEventClamps(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.At(5, func() {
		e.At(1, func() { at = e.Now() }) // in the past: clamps to now
	})
	e.Run(0)
	if at != 5 {
		t.Fatalf("past event ran at %v", at)
	}
}

func TestNetworkSingleFlow(t *testing.T) {
	e := NewEngine()
	n := NewNetwork(e)
	a := NewEndpoint("a", 100) // 100 B/s
	b := NewEndpoint("b", 100)
	var done float64 = -1
	n.StartFlow(a, b, 1000, 0, func(int) { done = e.Now() }, 0)
	e.Run(0)
	if done != 10 {
		t.Fatalf("1000B at 100B/s finished at %v, want 10", done)
	}
}

func TestNetworkFairShare(t *testing.T) {
	// Two flows from one source to two sinks: source bandwidth splits, so
	// both take twice as long.
	e := NewEngine()
	n := NewNetwork(e)
	src := NewEndpoint("src", 100)
	d1 := NewEndpoint("d1", 1000)
	d2 := NewEndpoint("d2", 1000)
	var t1, t2 float64
	n.StartFlow(src, d1, 1000, 0, func(int) { t1 = e.Now() }, 0)
	n.StartFlow(src, d2, 1000, 0, func(int) { t2 = e.Now() }, 0)
	e.Run(0)
	if !almostEqual(t1, 20) || !almostEqual(t2, 20) {
		t.Fatalf("t1=%v t2=%v want 20", t1, t2)
	}
}

func TestNetworkRateReallocationAfterCompletion(t *testing.T) {
	// Short flow finishes; long flow speeds up afterwards.
	e := NewEngine()
	n := NewNetwork(e)
	src := NewEndpoint("src", 100)
	d1 := NewEndpoint("d1", 1000)
	d2 := NewEndpoint("d2", 1000)
	var tShort, tLong float64
	n.StartFlow(src, d1, 500, 0, func(int) { tShort = e.Now() }, 0)
	n.StartFlow(src, d2, 1000, 0, func(int) { tLong = e.Now() }, 0)
	e.Run(0)
	// Short: 500B at 50B/s = 10s. Long: 500B at 50B/s + 500B at 100B/s =
	// 10 + 5 = 15s.
	if !almostEqual(tShort, 10) || !almostEqual(tLong, 15) {
		t.Fatalf("tShort=%v tLong=%v want 10, 15", tShort, tLong)
	}
}

func TestNetworkDestinationBottleneck(t *testing.T) {
	e := NewEngine()
	n := NewNetwork(e)
	s1 := NewEndpoint("s1", 1000)
	s2 := NewEndpoint("s2", 1000)
	dst := NewEndpoint("dst", 100)
	var t1, t2 float64
	n.StartFlow(s1, dst, 500, 0, func(int) { t1 = e.Now() }, 0)
	n.StartFlow(s2, dst, 500, 0, func(int) { t2 = e.Now() }, 0)
	e.Run(0)
	if !almostEqual(t1, 10) || !almostEqual(t2, 10) {
		t.Fatalf("t1=%v t2=%v want 10 (dest share 50B/s)", t1, t2)
	}
}

func TestNetworkOverheadDegradation(t *testing.T) {
	// With per-flow overhead, 10 concurrent flows from one source move
	// less aggregate bandwidth than one flow — the unsupervised hotspot.
	run := func(overhead float64, flows int) float64 {
		e := NewEngine()
		n := NewNetwork(e)
		src := NewEndpoint("src", 100)
		src.OverheadPerFlow = overhead
		var last float64
		for i := 0; i < flows; i++ {
			d := NewEndpoint("d", 10000)
			n.StartFlow(src, d, 100, 0, func(int) { last = e.Now() }, 0)
		}
		e.Run(0)
		return last
	}
	fair := run(0, 10)
	if !almostEqual(fair, 10) {
		t.Fatalf("fair 10-flow completion = %v want 10", fair)
	}
	degraded := run(0.1, 10)
	if degraded <= fair*1.5 {
		t.Fatalf("overhead model too weak: degraded=%v fair=%v", degraded, fair)
	}
}

func TestNetworkLatency(t *testing.T) {
	e := NewEngine()
	n := NewNetwork(e)
	a := NewEndpoint("a", 100)
	b := NewEndpoint("b", 100)
	var done float64
	n.StartFlow(a, b, 100, 5, func(int) { done = e.Now() }, 0)
	e.Run(0)
	if !almostEqual(done, 6) {
		t.Fatalf("done=%v want 6 (5 latency + 1 transfer)", done)
	}
}

func TestNetworkZeroSizeFlow(t *testing.T) {
	e := NewEngine()
	n := NewNetwork(e)
	a := NewEndpoint("a", 100)
	b := NewEndpoint("b", 100)
	done := false
	n.StartFlow(a, b, 0, 1, func(int) { done = true }, 0)
	e.Run(0)
	if !done {
		t.Fatal("zero-size flow never completed")
	}
	if n.InFlight() != 0 {
		t.Fatal("flow leaked")
	}
}
