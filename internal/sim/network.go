package sim

import (
	"fmt"
	"slices"
)

// Endpoint is one attachment point in the simulated network: a worker NIC,
// the manager NIC, an external URL server, or the shared filesystem.
type Endpoint struct {
	Name string
	// UpBW and DownBW are outgoing/incoming bandwidth in bytes/second.
	UpBW, DownBW float64
	// OverheadPerFlow degrades the endpoint's aggregate outgoing
	// efficiency as concurrent flows pile on: effective aggregate
	// bandwidth = UpBW / (1 + OverheadPerFlow * (n-1)). This is the
	// contention model behind the unsupervised hotspot of Figure 11b —
	// unmanaged fan-out from one source not only divides bandwidth but
	// wastes it.
	OverheadPerFlow float64
	// PerFlowBW caps any single flow touching this endpoint (zero means
	// uncapped). A single TCP stream over 10 GbE with disk I/O on both
	// ends moves far less than line rate; this cap is what makes many-
	// stream sources (a busy archive) and single-stream fan-out trees
	// behave proportionately.
	PerFlowBW float64

	out, in int // live flow counts
	// flows lists every live flow touching this endpoint (as source or
	// destination). A flow's rate depends only on its two endpoints' flow
	// counts, so when the flow set changes, these lists name exactly the
	// flows whose rates can differ — the rest keep bit-identical rates.
	flows []*Flow
}

// attach appends f to the endpoint's list and returns its position there.
func (ep *Endpoint) attach(f *Flow) int {
	ep.flows = append(ep.flows, f)
	return len(ep.flows) - 1
}

// detach swap-removes the flow at position i, fixing the position the
// moved flow stores for this endpoint.
func (ep *Endpoint) detach(i int) {
	last := len(ep.flows) - 1
	if i != last {
		m := ep.flows[last]
		ep.flows[i] = m
		// A flow from an endpoint to itself sits in the list twice; the
		// position that pointed at the last slot is the one that moved.
		if m.src == ep && m.srcPos == last {
			m.srcPos = i
		} else {
			m.dstPos = i
		}
	}
	ep.flows[last] = nil
	ep.flows = ep.flows[:last]
}

// Flow is one transfer, from StartFlow until it completes. Flow records are
// recycled: slot is the record's position in Network.slots.
type Flow struct {
	src, dst  *Endpoint
	remaining float64
	rate      float64
	// done(arg) fires at completion.
	done func(int)
	arg  int
	id   int
	slot int
	// pos, srcPos and dstPos are the flow's positions in Network.flows,
	// src.flows and dst.flows; pos is -1 while the flow is not moving bytes.
	pos, srcPos, dstPos int
}

// Network simulates point-to-point transfers as fluid flows. A flow's rate
// is min(source share, destination share), each capped by the endpoint's
// PerFlowBW: the source share is its aggregate upload bandwidth, reduced by
// OverheadPerFlow, divided by its flow count, and the destination share is
// its download bandwidth divided by its flow count. Rates are recomputed
// for the flows on a changed flow's endpoints whenever the flow set
// changes. Capacity a flow cannot use because its other end is slower is
// not passed on to the endpoint's other flows, so this is not max-min
// fairness (ROADMAP.md, "A fluid network that is max-min fair", describes
// the water-filling that would be). The model still captures the phenomena
// the paper's transfer experiments measure: source saturation, fan-out
// trees, and contention overheads.
type Network struct {
	eng   *Engine
	flows []*Flow
	// slots holds every flow record, pending or live, by slot; free lists
	// the slots not in use.
	slots  []*Flow
	free   []int
	nextID int
	// timer fires at the earliest flow completion; cancelled and re-armed
	// on every change. begin and fire are the engine callbacks, bound once;
	// both take a flow slot.
	timer       Timer
	begin, fire func(int)
	lastUpdate  float64
}

// NewNetwork creates a network on the given engine.
func NewNetwork(eng *Engine) *Network {
	n := &Network{eng: eng}
	n.begin, n.fire = n.beginFlow, n.fireFlow
	return n
}

// NewEndpoint creates an endpoint with symmetric bandwidth.
func NewEndpoint(name string, bw float64) *Endpoint {
	return &Endpoint{Name: name, UpBW: bw, DownBW: bw}
}

// InFlight returns the number of active flows.
func (n *Network) InFlight() int { return len(n.flows) }

// StartFlow begins moving size bytes from src to dst after a fixed latency;
// done(arg) fires at completion. A zero or negative size completes after
// just the latency. done is meant to be bound once and arg to name the
// transfer, so starting a flow allocates no closure.
func (n *Network) StartFlow(src, dst *Endpoint, size float64, latency float64, done func(int), arg int) {
	if src == nil || dst == nil {
		panic("sim: flow with nil endpoint")
	}
	var f *Flow
	if k := len(n.free); k > 0 {
		f, n.free = n.slots[n.free[k-1]], n.free[:k-1]
	} else {
		f = &Flow{slot: len(n.slots)}
		n.slots = append(n.slots, f)
	}
	f.src, f.dst, f.remaining, f.pos = src, dst, size, -1
	f.done, f.arg = done, arg
	n.eng.Call(latency, n.begin, f.slot)
}

// beginFlow puts a flow on the wire once its latency has passed.
func (n *Network) beginFlow(slot int) {
	f := n.slots[slot]
	if f.remaining <= 0 {
		n.finish(f)
		return
	}
	n.advance()
	n.nextID++
	f.id = n.nextID
	f.pos = len(n.flows)
	n.flows = append(n.flows, f)
	f.src.out++
	f.dst.in++
	f.srcPos = f.src.attach(f)
	f.dstPos = f.dst.attach(f)
	n.reschedule(f)
}

// finish frees a flow's record and fires its completion callback.
func (n *Network) finish(f *Flow) {
	done, arg := f.done, f.arg
	*f = Flow{slot: f.slot, pos: -1}
	n.free = append(n.free, f.slot)
	done(arg)
}

// advance applies progress to all flows up to the current time.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := now - n.lastUpdate
	if dt > 0 {
		for _, f := range n.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	n.lastUpdate = now
}

// recomputeFlow assigns the flow min(source share, destination share),
// then applies both endpoints' per-flow caps. The source share includes
// the contention-overhead degradation.
func recomputeFlow(f *Flow) {
	srcAgg := f.src.UpBW
	if f.src.OverheadPerFlow > 0 && f.src.out > 1 {
		eff := 1 / (1 + f.src.OverheadPerFlow*float64(f.src.out-1))
		// Contention wastes bandwidth but cannot erase it entirely;
		// floor the efficiency so extreme fan-in stays finite.
		if eff < 0.2 {
			eff = 0.2
		}
		srcAgg = f.src.UpBW * eff
	}
	srcShare := srcAgg / float64(f.src.out)
	dstShare := f.dst.DownBW / float64(f.dst.in)
	f.rate = srcShare
	if dstShare < f.rate {
		f.rate = dstShare
	}
	if f.src.PerFlowBW > 0 && f.rate > f.src.PerFlowBW {
		f.rate = f.src.PerFlowBW
	}
	if f.dst.PerFlowBW > 0 && f.rate > f.dst.PerFlowBW {
		f.rate = f.dst.PerFlowBW
	}
	if f.rate <= 0 {
		f.rate = 1 // avoid stalling forever on misconfigured endpoints
	}
}

// reschedule re-arms the completion timer after the flow set changed.
// changed is the flow just added or removed (nil when the set is unchanged
// and only the timer needs re-arming). A flow's rate is a pure function of
// its endpoints' flow counts, so only flows sharing an endpoint with the
// changed flow can shift — recomputing exactly those gives bit-identical
// rates to a full recompute, in O(neighbourhood) instead of O(all flows).
//
// The timer min-scan stays global and is recomputed from the freshly
// advanced remaining values: arming from anything cached would drift the
// completion instants by float rounding and break trace determinism.
func (n *Network) reschedule(changed *Flow) {
	n.timer.Cancel()
	if len(n.flows) == 0 {
		return
	}
	if changed != nil {
		for _, f := range changed.src.flows {
			recomputeFlow(f)
		}
		for _, f := range changed.dst.flows {
			recomputeFlow(f)
		}
	}
	var first *Flow
	var firstT float64
	for _, f := range n.flows {
		t := f.remaining / f.rate
		if first == nil || t < firstT || (t == firstT && f.id < first.id) {
			first, firstT = f, t
		}
	}
	n.timer = n.eng.Call(firstT, n.fire, first.slot)
}

// fireFlow completes the flow the timer was armed for.
func (n *Network) fireFlow(slot int) { n.complete(n.slots[slot]) }

func (n *Network) complete(f *Flow) {
	n.advance()
	if f.pos < 0 {
		n.reschedule(nil)
		return
	}
	last := len(n.flows) - 1
	if f.pos != last {
		n.flows[f.pos] = n.flows[last]
		n.flows[f.pos].pos = f.pos
	}
	n.flows[last] = nil
	n.flows = n.flows[:last]
	f.pos = -1
	f.src.out--
	f.dst.in--
	f.src.detach(f.srcPos)
	f.dst.detach(f.dstPos)
	n.reschedule(f)
	n.finish(f)
}

// Snapshot renders current flows for debugging.
func (n *Network) Snapshot() string {
	flows := slices.Clone(n.flows)
	slices.SortFunc(flows, func(a, b *Flow) int { return a.id - b.id })
	s := ""
	for _, f := range flows {
		s += fmt.Sprintf("flow %d %s->%s %.0fB @%.0fB/s\n", f.id, f.src.Name, f.dst.Name, f.remaining, f.rate)
	}
	return s
}
