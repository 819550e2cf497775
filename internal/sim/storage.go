package sim

import (
	"sort"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/replica"
	"taskvine/internal/trace"
)

// Worker-side storage management in the simulator, mirroring
// internal/cache: each worker's disk is a flat cache with capacity;
// admission evicts unpinned objects cheapest-lifetime-first then
// least-recently-used (§2.1: storage resources are enforced at the worker
// and controlled by the manager, including cache admittance and eviction).

// cachedObject tracks one object resident at a simulated worker.
type cachedObject struct {
	id      replica.FileH
	size    int64
	lastUse float64
	// pins counts running tasks using the object.
	pins int
}

// storage lazily initializes a worker's cache map.
func (w *simWorker) storage() map[replica.FileH]cachedObject {
	if w.cache == nil {
		w.cache = make(map[replica.FileH]cachedObject)
	}
	return w.cache
}

// admit reserves space for an object, evicting ephemeral unpinned objects
// if necessary. Returns false when the object cannot fit even after
// eviction; evicted objects are reported so the replica table stays true.
func (c *Cluster) admit(w *simWorker, fh replica.FileH) bool {
	f := c.files[fh].File
	if c.faults.At(chaos.CacheInsert, w.spec.ID, f.ID).Action == chaos.Fail {
		// Injected disk-full: the object is refused exactly as if eviction
		// could not make room; the consumer is retried on a later pass.
		return false
	}
	if w.spec.Disk <= 0 {
		// Unlimited disk: common for shape experiments.
		return true
	}
	cache := w.storage()
	if _, ok := cache[fh]; ok {
		return true
	}
	if w.cacheUsed+f.Size <= w.spec.Disk {
		return true
	}
	// Gather victims: unpinned, not currently being materialized.
	var victims []cachedObject
	for id, obj := range cache { // hotpath-ok: eviction scan, only when one worker's disk is full
		if obj.pins > 0 || w.materializing[id] {
			continue
		}
		victims = append(victims, obj)
	}
	sort.Slice(victims, func(i, j int) bool { // hotpath-ok: eviction order, only when one worker's disk is full
		li := c.lifetimeOf(victims[i].id)
		lj := c.lifetimeOf(victims[j].id)
		if li != lj {
			return li < lj
		}
		if victims[i].lastUse != victims[j].lastUse {
			return victims[i].lastUse < victims[j].lastUse
		}
		// The ID tie-break pins the eviction order when lifetimes and last
		// uses are equal, since victims were gathered in map order.
		return c.fileName(victims[i].id) < c.fileName(victims[j].id)
	})
	for _, v := range victims {
		if w.cacheUsed+f.Size <= w.spec.Disk {
			break
		}
		c.evict(w, v.id)
	}
	return w.cacheUsed+f.Size <= w.spec.Disk
}

func (c *Cluster) lifetimeOf(fh replica.FileH) files.Lifetime {
	if f := c.files[fh].File; f != nil {
		return f.Lifetime
	}
	return files.LifetimeWorkflow
}

// store records an object as resident after a transfer, materialization,
// or task output.
func (c *Cluster) store(w *simWorker, fh replica.FileH, size int64) {
	cache := w.storage()
	if _, ok := cache[fh]; ok {
		return
	}
	cache[fh] = cachedObject{id: fh, size: size, lastUse: c.eng.Now()}
	w.cacheUsed += size
	c.vm.CacheInserts.Inc()
	c.vm.CacheInsertBytes.Add(size)
	c.reps.Commit(fh, w.h)
}

// evict removes an object from the worker and the replica table, recording
// the trace event the worker's cache-invalid message would produce.
func (c *Cluster) evict(w *simWorker, fh replica.FileH) {
	cache := w.storage()
	obj, ok := cache[fh]
	if !ok {
		return
	}
	delete(cache, fh)
	c.evictions++
	w.cacheUsed -= obj.size
	c.reps.Remove(fh, w.h)
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.FileEvicted, Worker: w.spec.ID, File: c.fileName(fh),
	})
}

// pin marks a task's inputs in use for the duration of its run.
func (c *Cluster) pin(w *simWorker, ids []replica.FileH) {
	cache := w.storage()
	for _, id := range ids {
		if obj, ok := cache[id]; ok {
			obj.pins++
			obj.lastUse = c.eng.Now()
			cache[id] = obj
		}
	}
}

// unpin releases a task's inputs.
func (c *Cluster) unpin(w *simWorker, ids []replica.FileH) {
	cache := w.storage()
	for _, id := range ids {
		if obj, ok := cache[id]; ok && obj.pins > 0 {
			obj.pins--
			cache[id] = obj
		}
	}
}
