package sim

import (
	"taskvine/internal/cache"
	"taskvine/internal/files"
	"taskvine/internal/replica"
	"taskvine/internal/trace"
)

// Worker-side storage management in the simulator (§2.1: storage resources
// are enforced at the worker and controlled by the manager, including cache
// admittance and eviction). Each worker's disk is a cache.Policy, the same
// policy the real worker's cache wraps, fed the virtual clock: victims are
// the unpinned objects, cheapest lifetime first, least recently used, then
// name.
//
// Admission timing differs from the real worker's. The real cache reserves
// an object's bytes when its transfer starts; here admit only checks that
// the object fits when its transfer or unpack starts, and store counts its
// bytes when it lands. Concurrent admissions to one worker can therefore
// over-fill its disk: each sees the room the others have not yet taken.

// admit makes room for an object, evicting unpinned objects if necessary.
// Returns false when the object cannot fit even after eviction; evicted
// objects are reported so the replica table stays true.
func (c *Cluster) admit(w *simWorker, fh replica.FileH) bool {
	if w.spec.Disk <= 0 || w.disk.Has(fh) {
		// Unlimited disk is common for shape experiments.
		return true
	}
	victims, fits := w.disk.Victims(c.files[fh].Size)
	for _, v := range victims {
		// Record the trace event the worker's cache-invalid message would
		// produce.
		w.disk.Remove(v)
		c.evictions++
		c.reps.Remove(v, w.h)
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.FileEvicted, Worker: w.spec.ID, File: c.fileName(v),
		})
	}
	return fits
}

// store records an object as resident after a transfer, materialization,
// or task output.
func (c *Cluster) store(w *simWorker, fh replica.FileH, size int64) {
	lifetime := files.LifetimeWorkflow
	if f := c.files[fh].File; f != nil {
		lifetime = f.Lifetime
	}
	if !w.disk.Add(fh, c.fileName(fh), size, cache.Lifetime(lifetime), c.eng.Now(), false) {
		return
	}
	c.vm.CacheInserts.Inc()
	c.vm.CacheInsertBytes.Add(size)
	c.reps.Commit(fh, w.h)
}
