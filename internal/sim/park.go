package sim

import (
	"sort"

	"taskvine/internal/intern"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
)

// Parking: a scheduling pass replans only the staging tasks whose plan can
// have changed.
//
// A staging task is parked after any plan that leaves it unable to start,
// once the plan's transfers and MiniTask unpacks have begun. Replanning it
// then would give a plan that starts nothing: each input is ready at its
// worker, on its way there, or blocked on a transfer slot. Such a plan
// depends on exactly three things:
//
//   - mutations of its files (its inputs and, while a MiniTask product has
//     no ready replica, the product's inputs): policy.PlanTransfers reads
//     Reps.Has, TransferPending and the holder list, and fileNeeds expands
//     a product on its CountReplicas;
//   - its destination slot, the transfers in flight to its worker;
//   - its sources' slots, for each blocked input: the transfers in flight
//     from each worker holding it and from its fixed source.
//
// Only a slot freeing can unblock an input: with no transfer in the plan,
// a fuller slot keeps every blocked input blocked. So the task is indexed
// under its files and, if an input is blocked, under those slots, and the
// table wrappers below wake it on a file mutation (every one goes through
// them) or on a transfer completing or being dropped with a worker. A join
// adds no replica but through store, and a leave drops replicas and
// transfers through the wrappers, so membership changes need no wake of
// their own.
//
// A plan is not a fixed point, and the task stays on the replan list, when
// admission refused one of its transfers or unpacks (the retry waits on
// disk space, not on a table) or when admission evicted anything while it
// started them (an evicted input must be fetched again).
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

func (r replicaTable) Add(f replica.FileH, w replica.WorkerH, state replica.ReplicaState) {
	r.Table.Add(f, w, state)
	r.c.wakeFile(f)
}

func (r replicaTable) Commit(f replica.FileH, w replica.WorkerH) {
	r.Table.Commit(f, w)
	r.c.wakeFile(f)
}

func (r replicaTable) Remove(f replica.FileH, w replica.WorkerH) {
	r.Table.Remove(f, w)
	r.c.wakeFile(f)
}

// DropWorker returns the affected files sorted by file ID.
func (r replicaTable) DropWorker(w replica.WorkerH) []replica.FileH {
	affected := r.Table.DropWorker(w)
	files := &r.c.names.Files
	sort.Slice(affected, func(i, j int) bool { // hotpath-ok: runs only on worker departure, over the departed worker's files
		return files.Name(affected[i]) < files.Name(affected[j])
	})
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

func (t transferTable) Start(f replica.FileH, src replica.Source, dest replica.WorkerH) replica.Transfer {
	tr := t.Transfers.Start(f, src, dest)
	t.c.wakeFile(f)
	return tr
}

func (t transferTable) Complete(id replica.TransferID) (replica.Transfer, bool) {
	tr, ok := t.Transfers.Complete(id)
	if ok {
		t.c.wakeTransfer(tr)
	}
	return tr, ok
}

func (t transferTable) DropWorker(w replica.WorkerH) []replica.Transfer {
	cancelled := t.Transfers.DropWorker(w)
	for _, tr := range cancelled {
		t.c.wakeTransfer(tr)
	}
	return cancelled
}

// park sets a staging task on worker w aside until one of its files
// changes or, when an input is blocked, a slot it waits on frees. needs and
// blocked are the plan's: starting its transfers and unpacks adds only
// pending replicas, and fileNeeds expands a product on its ready ones, so
// the next plan would read the same needs. blocked lists its files in the
// order of needs, and may name a product whose unpack has since begun.
func (c *Cluster) park(id int, t *simTask, w *simWorker, needs []policy.FileNeed, blocked []replica.FileH) {
	t.parked = true
	t.parkGen++
	ref := parkRef{id, t.parkGen}
	destIndexed := false
	for _, n := range needs {
		f := &c.files[n.ID]
		f.wakeOn = c.addPark(f.wakeOn, ref)
		if len(blocked) == 0 || blocked[0] != n.ID {
			continue
		}
		blocked = blocked[1:]
		if !destIndexed {
			w.wakeDest = c.addPark(w.wakeDest, ref)
			destIndexed = true
		}
		c.holders = c.reps.AppendLocate(c.holders[:0], n.ID)
		for _, h := range c.holders {
			if h != w.h {
				hw := c.worker(h)
				hw.wakeSrc = c.addPark(hw.wakeSrc, ref)
			}
		}
		if src := n.FixedSource; !src.IsZero() {
			c.wakeFixed = intern.Grow(c.wakeFixed, src.ID)
			c.wakeFixed[src.ID] = c.addPark(c.wakeFixed[src.ID], ref)
		}
	}
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
func (c *Cluster) wakeFile(f replica.FileH) { c.wakeAll(&c.files[f].wakeOn) }

// wakeTransfer wakes every task parked on what a finished or dropped
// transfer frees: its file and the slots it held at both ends.
func (c *Cluster) wakeTransfer(tr replica.Transfer) {
	c.wakeAll(&c.files[tr.File].wakeOn)
	c.wakeAll(&c.worker(tr.Dest).wakeDest)
	if w := tr.Source.Worker(); w != 0 {
		c.wakeAll(&c.worker(w).wakeSrc)
	} else if int(tr.Source.ID) < len(c.wakeFixed) {
		c.wakeAll(&c.wakeFixed[tr.Source.ID])
	}
}

// wakeAll wakes every task parked on one list and empties it.
func (c *Cluster) wakeAll(refs *[]parkRef) {
	for _, r := range *refs {
		c.wake(r)
	}
	*refs = (*refs)[:0]
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
