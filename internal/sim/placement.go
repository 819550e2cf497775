package sim

import (
	"slices"

	"taskvine/internal/policy"
	"taskvine/internal/replica"
)

// placementHost is the simulator's policy.Substrate. Lookahead placement
// (c.place, a policy.Lookahead) is the same engine the real manager runs,
// fed the same way — queue-front tasks in order, hot files sorted by ID,
// live workers in join order — so a simulated run and a real run of one
// workflow make identical placement decisions. Default off; golden traces
// are unchanged unless SetPlacement is called.
type placementHost struct{ c *Cluster }

// SetPlacement enables lookahead placement. Call before Run; a disabled
// spec leaves the cluster exactly as constructed.
func (c *Cluster) SetPlacement(spec policy.PlacementSpec) {
	c.place = policy.NewLookahead(spec, c.vm, c.view)
	if c.place == nil {
		return
	}
	for _, t := range c.tasks {
		if t.state == 0 || t.state == 1 {
			c.consume(t, 1)
		}
	}
}

// consume counts a task in or out of its inputs' consumer counts, once per
// distinct file.
func (c *Cluster) consume(t *simTask, delta int) {
	for i, in := range t.inputs {
		if !slices.Contains(t.inputs[:i], in) {
			c.place.Consume(in, delta)
		}
	}
}

// placeLookahead runs one lookahead placement pass unless placement is off.
func (c *Cluster) placeLookahead() {
	if c.place != nil {
		c.place.Pass(placementHost{c}, c.live, c.waiting, c.limits)
	}
}

func (h placementHost) QueuedNeeds(id int) []policy.FileNeed {
	t := h.c.tasks[id]
	if t.state != 0 || len(t.inputs) == 0 {
		return nil
	}
	return h.c.fileNeedsInto(nil, t.inputs) // fresh: the pass keeps it
}

func (h placementHost) FileNeeds(f replica.FileH) []policy.FileNeed {
	return h.c.fileNeedsScratch([]replica.FileH{f})
}

func (h placementHost) ProducerWorker(f replica.FileH) replica.WorkerH {
	prod := h.c.files[f].producer
	if prod == 0 {
		return 0
	}
	if t := h.c.tasks[prod-1]; t.state == 1 || t.state == 2 {
		return t.worker.h
	}
	return 0
}

func (h placementHost) DiskCapacity(w replica.WorkerH) int64 {
	return h.c.worker(w).spec.Disk
}

// StartPlacement reports false when admission refused the transfer (disk
// full) or the destination has left.
func (h placementHost) StartPlacement(a policy.PlacementAction) bool {
	w := h.c.worker(a.Dest)
	if !w.joined {
		return false
	}
	h.c.startTransfer(a.File, a.Source, w, "placement:"+a.Kind.String())
	return h.c.trs.Pending(a.File, a.Dest)
}
