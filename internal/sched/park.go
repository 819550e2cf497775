package sched

import (
	"slices"

	"taskvine/internal/intern"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/taskspec"
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
//     Reps.Has, TransferPending and the holder list, and Needs expands a
//     product on its CountReplicas;
//   - its destination slot, the transfers in flight to its worker;
//   - its sources' slots, for each blocked input: the transfers in flight
//     from each worker holding it and from its fixed source.
//
// Only a slot freeing can unblock an input: with no transfer in the plan,
// a fuller slot keeps every blocked input blocked. So the task is indexed
// under its files and, if an input is blocked, under those slots, and the
// tables' change hooks wake it on a file mutation or on a transfer
// completing or being dropped with a worker. A join adds no replica but
// through the table, and a leave drops replicas and transfers through it,
// so membership changes need no wake of their own.
//
// A plan is not a fixed point, and the task stays on the replan list, when
// the substrate reports a start as unsettled: admission refused a transfer
// or unpack, or evicted something while starting them, or a transfer is
// inside its retry backoff window or failed to start. No table mutation
// signals the retry.
//
// A woken task is replanned where a pass replanning every staging task in
// ID order would have replanned it, so decisions match such a pass exactly:
// if the wake happens during the staging loop and the task's ID is above
// the one being planned, it joins this pass in ID order; otherwise it
// waits for the next pass.

// parkRef records one parking of a task. It is stale once the task has been
// woken or has left staging, and after a re-park, whose gen differs.
type parkRef struct{ id, gen int }

// fileChanged and transferChanged are the view's table hooks: every
// mutation of the replica and transfer tables wakes the parked tasks it
// concerns.
func (e *Engine) fileChanged(f replica.FileH) {
	e.dirty = true
	if int(f) < len(e.files) {
		e.wakeAll(&e.files[f].parked)
	}
}

// transferChanged wakes the tasks parked on a started transfer's file and,
// once it ends, on what it frees: its file and the slots it held at both
// ends.
func (e *Engine) transferChanged(tr replica.Transfer, ended bool) {
	e.fileChanged(tr.File)
	if !ended {
		return
	}
	e.wakeAll(&e.worker(tr.Dest).onDest)
	if w := tr.Source.Worker(); w != 0 {
		e.wakeAll(&e.worker(w).onSrc)
	} else if int(tr.Source.ID) < len(e.onFixed) {
		e.wakeAll(&e.onFixed[tr.Source.ID])
	}
}

// park sets a staging task on worker w aside until one of its files
// changes or, when an input is blocked, a slot it waits on frees. needs and
// blocked are the plan's: starting its transfers and unpacks adds only
// pending replicas, and Needs expands a product on its ready ones, so the
// next plan would read the same needs. blocked lists its files in the order
// of needs, and may name a product whose unpack has since begun.
func (e *Engine) park(id int, t *Task, w replica.WorkerH, needs []policy.FileNeed, blocked []replica.FileH) {
	t.parked = true
	t.parkGen++
	ref := parkRef{id, t.parkGen}
	destIndexed := false
	for _, n := range needs {
		fs := e.file(n.ID)
		fs.parked = e.addPark(fs.parked, ref)
		if len(blocked) == 0 || blocked[0] != n.ID {
			continue
		}
		blocked = blocked[1:]
		if !destIndexed {
			ws := e.worker(w)
			ws.onDest = e.addPark(ws.onDest, ref)
			destIndexed = true
		}
		e.holders = e.view.Reps.AppendLocate(e.holders[:0], n.ID)
		for _, h := range e.holders {
			if h != w {
				hs := e.worker(h)
				hs.onSrc = e.addPark(hs.onSrc, ref)
			}
		}
		if src := n.FixedSource; !src.IsZero() {
			e.onFixed = intern.Grow(e.onFixed, src.ID)
			e.onFixed[src.ID] = e.addPark(e.onFixed[src.ID], ref)
		}
	}
}

// addPark appends a reference to a list, first dropping stale ones when
// the list is full. A list that holds none takes a spare backing array,
// and a compaction that leaves it more than half full doubles its
// capacity, passing the old array on as a spare: appends stay amortized
// O(1), a list never holds more than about twice its live references,
// and arrays are allocated only as the number of lists in use grows.
func (e *Engine) addPark(list []parkRef, ref parkRef) []parkRef {
	if cap(list) == 0 && len(e.spare) > 0 {
		n := len(e.spare) - 1
		list, e.spare = e.spare[n], e.spare[:n]
	}
	if len(list) == cap(list) {
		live := list[:0]
		for _, r := range list {
			if e.parkLive(r) != nil {
				live = append(live, r)
			}
		}
		list = live
		if len(list) > cap(list)/2 {
			grown := append(make([]parkRef, 0, 2*cap(list)+1), list...)
			e.spare = append(e.spare, list[:0])
			list = grown
		}
	}
	return append(list, ref)
}

// parkLive returns the task a reference parked, or nil once it is stale.
func (e *Engine) parkLive(r parkRef) *Task {
	if t := e.sub.Task(r.id); t != nil && t.parked && t.parkGen == r.gen {
		return t
	}
	return nil
}

// wakeAll wakes every task parked on one list and empties it, passing its
// backing array on as a spare.
func (e *Engine) wakeAll(refs *[]parkRef) {
	list := *refs
	if len(list) == 0 {
		return
	}
	for _, r := range list {
		e.wake(r)
	}
	*refs = nil
	e.spare = append(e.spare, list[:0])
}

// wake unparks a task and queues it for replanning: into the running
// staging loop when its ID is still ahead of the loop, else the next pass.
func (e *Engine) wake(r parkRef) {
	t := e.parkLive(r)
	if t == nil {
		return
	}
	t.parked = false
	if e.inPass && r.id > e.pass[e.passAt] {
		rest := e.pass[e.passAt+1:]
		i, found := slices.BinarySearch(rest, r.id)
		if !found {
			e.pass = slices.Insert(e.pass, e.passAt+1+i, r.id)
		}
		return
	}
	e.replan = append(e.replan, r.id)
}

// stage runs the staging loop of a pass: every unparked staging task in ID
// order, each planned once.
func (e *Engine) stage() {
	e.pass, e.replan = e.replan, e.pass[:0]
	slices.Sort(e.pass)
	e.inPass = true
	for e.passAt = 0; e.passAt < len(e.pass); e.passAt++ {
		id := e.pass[e.passAt]
		if e.passAt > 0 && id == e.pass[e.passAt-1] {
			continue
		}
		t := e.sub.Task(id)
		if t == nil || t.State != taskspec.StateStaging || t.parked {
			continue
		}
		e.progressStaging(id, t)
		if t.State == taskspec.StateStaging && !t.parked {
			e.replan = append(e.replan, id)
		}
	}
	e.inPass = false
}
