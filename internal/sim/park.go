package sim

import (
	"sort"

	"taskvine/internal/policy"
	"taskvine/internal/replica"
)

// Parking: a scheduling pass replans only the staging tasks whose plan can
// have changed.
//
// A staging task is parked when its plan neither starts a transfer nor has
// a blocked input, yet the task cannot start: every input is ready at its
// worker or on its way there. For such needs policy.PlanTransfers decides
// on Reps.Has and TransferPending alone, before it looks at slot counts
// or sources, and fileNeeds expands a MiniTask product only on its
// CountReplicas. All of these change only through a replica-table or
// transfer-table mutation on that very file. So a parked task's plan is
// fixed until one of its files is mutated, and replanning it earlier would
// be a call with no effect. Every mutation goes through the two table
// wrappers below, which wake the parked tasks that need the file; worker
// joins and departures wake every parked task.
//
// A woken task is replanned where a pass replanning every staging task in
// ID order would have replanned it, so decisions match such a pass exactly:
// if the wake happens during the staging loop and the task's ID is above
// the one being planned, it joins this pass in ID order; otherwise it
// waits for the next pass.

// parkRef records one parking of a task. It is stale once the task has been
// woken or has left staging, and after a re-park, whose gen differs.
type parkRef struct{ id, gen int }

// replicaTable is the File Replica Table as the simulator mutates it: every
// mutation wakes the parked tasks that need the file.
type replicaTable struct {
	*replica.Table
	c *Cluster
}

func (r replicaTable) Add(file, worker string, state replica.ReplicaState) {
	r.Table.Add(file, worker, state)
	r.c.wakeFile(file)
}

func (r replicaTable) Commit(file, worker string) {
	r.Table.Commit(file, worker)
	r.c.wakeFile(file)
}

func (r replicaTable) Remove(file, worker string) {
	r.Table.Remove(file, worker)
	r.c.wakeFile(file)
}

func (r replicaTable) DropWorker(worker string) []string {
	affected := r.Table.DropWorker(worker)
	sort.Strings(affected)
	for _, f := range affected {
		r.c.wakeFile(f)
	}
	return affected
}

// transferTable is the Current Transfer Table as the simulator mutates it,
// waking like replicaTable.
type transferTable struct {
	*replica.Transfers
	c *Cluster
}

func (t transferTable) Start(file string, src replica.Source, dest string) replica.Transfer {
	tr := t.Transfers.Start(file, src, dest)
	t.c.wakeFile(file)
	return tr
}

func (t transferTable) Complete(id string) (replica.Transfer, bool) {
	tr, ok := t.Transfers.Complete(id)
	if ok {
		t.c.wakeFile(tr.File)
	}
	return tr, ok
}

func (t transferTable) DropWorker(worker string) []replica.Transfer {
	cancelled := t.Transfers.DropWorker(worker)
	for _, tr := range cancelled {
		t.c.wakeFile(tr.File)
	}
	return cancelled
}

// park sets a staging task aside until one of its needs changes, indexing
// it under every file its plan consulted (MiniTask inputs included).
func (c *Cluster) park(id int, t *simTask, needs []policy.FileNeed) {
	t.parked = true
	t.parkGen++
	ref := parkRef{id, t.parkGen}
	for _, n := range needs {
		c.wakeOn[n.ID] = c.addPark(c.wakeOn[n.ID], ref)
	}
	c.parkedAll = c.addPark(c.parkedAll, ref)
}

// addPark appends a reference, first dropping stale ones when the list is
// full, and grows it so that the next compaction is at least as far away
// as the live count: appends stay amortized O(1) and a list never holds
// more than about twice its live references.
func (c *Cluster) addPark(list []parkRef, ref parkRef) []parkRef {
	if len(list) == cap(list) {
		live := list[:0]
		for _, r := range list {
			if c.parkLive(r) {
				live = append(live, r)
			}
		}
		list = live
		if len(list) > cap(list)/2 {
			grown := make([]parkRef, len(list), 2*len(list)+1)
			copy(grown, list)
			list = grown
		}
	}
	return append(list, ref)
}

func (c *Cluster) parkLive(r parkRef) bool {
	t := c.tasks[r.id]
	return t.parked && t.parkGen == r.gen
}

// wakeFile wakes every task parked on the file.
func (c *Cluster) wakeFile(fileID string) {
	refs := c.wakeOn[fileID]
	if len(refs) == 0 {
		return
	}
	for _, r := range refs {
		c.wake(r)
	}
	c.wakeOn[fileID] = refs[:0]
}

// wakeAll wakes every parked task: worker membership changed.
func (c *Cluster) wakeAll() {
	for _, r := range c.parkedAll {
		c.wake(r)
	}
	c.parkedAll = c.parkedAll[:0]
}

// wake unparks a task and queues it for replanning: into the running
// staging loop when its ID is still ahead of the loop, else the next pass.
func (c *Cluster) wake(r parkRef) {
	if !c.parkLive(r) {
		return
	}
	c.tasks[r.id].parked = false
	if c.inPass && r.id > c.pass[c.passAt] {
		rest := c.pass[c.passAt+1:]
		i := sort.SearchInts(rest, r.id)
		if i < len(rest) && rest[i] == r.id {
			return // already queued in this pass
		}
		at := c.passAt + 1 + i
		c.pass = append(c.pass, 0)
		copy(c.pass[at+1:], c.pass[at:])
		c.pass[at] = r.id
		return
	}
	c.replan = append(c.replan, r.id)
}

// progressAllStaging runs the staging loop of a pass: every unparked
// staging task in ID order, each planned once.
func (c *Cluster) progressAllStaging() {
	c.pass, c.replan = c.replan, c.pass[:0]
	sort.Ints(c.pass)
	c.inPass = true
	for c.passAt = 0; c.passAt < len(c.pass); c.passAt++ {
		id := c.pass[c.passAt]
		if c.passAt > 0 && id == c.pass[c.passAt-1] {
			continue
		}
		t := c.tasks[id]
		if t.state != 1 || t.parked {
			continue
		}
		c.progressStaging(id, t)
		if t.state == 1 && !t.parked {
			c.replan = append(c.replan, id)
		}
	}
	c.inPass = false
}
