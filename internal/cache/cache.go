// Package cache implements worker storage management (§2.1, §3.2, Figure 4).
//
// A worker's local storage is organized as a flat cache of data objects,
// each stored under a unique cache name assigned by the manager. The cache
// tracks the size and state of every object, accounts disk consumption
// against a capacity, and distinguishes objects by declared lifetime so
// that workflow conclusion can evict ephemeral data while worker-lifetime
// software packages and reference datasets persist for future workflows.
//
// Storage is tiered (§3.4): objects live either on disk (TierDisk) or in
// RAM (TierMemory). The memory tier holds serverless results and other
// byte-addressed objects under a configurable budget; under memory
// pressure the least-recently-used objects spill to disk. An object moves
// only from memory to disk, never back: reading it leaves its tier alone.
// Either tier serves reads through Open, so peers and the manager fetch
// memory-resident objects without the bytes ever touching disk.
package cache

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"taskvine/internal/metrics"
	"taskvine/internal/protocol"
	"taskvine/internal/tardir"
)

// Lifetime mirrors files.Lifetime without importing it, keeping the worker
// side free of manager-side packages. The integer values are identical and
// travel in protocol messages.
type Lifetime int

// Lifetime values, ordered by eviction preference: lower values are evicted
// first.
const (
	LifetimeTask Lifetime = iota
	LifetimeWorkflow
	LifetimeWorker
)

// State tracks an object's presence in the cache.
type State int

const (
	// StatePending means the object has been reserved (a transfer or
	// MiniTask is materializing it) but is not yet usable.
	StatePending State = iota
	// StateReady means the object is fully present and immutable.
	StateReady
	// StateFailed means materialization failed; the entry holds the error.
	StateFailed
)

// Tier identifies where a ready object's bytes live.
type Tier int

const (
	// TierDisk objects live at Path(name); this is the only tier for
	// directory objects and for anything materialized by a transfer.
	TierDisk Tier = iota
	// TierMemory objects live in RAM under the memory budget; they have no
	// on-disk presence until spilled or materialized.
	TierMemory
)

// String returns a readable name for the tier.
func (t Tier) String() string {
	if t == TierMemory {
		return "memory"
	}
	return "disk"
}

// Entry describes one cached object.
type Entry struct {
	Name     string
	Size     int64
	State    State
	Lifetime Lifetime
	// Tier records where the bytes live; meaningful only when ready.
	Tier Tier
	// Dir marks directory objects (unpacked trees).
	Dir bool
	// Err records why materialization failed.
	Err error
	// deferred marks an object whose deletion was requested while pinned;
	// the removal happens when the last pin is released and is reported
	// through the evicted list so the manager's replica table converges.
	deferred bool
	// data holds the object's bytes while the entry is in the memory tier.
	// The slice is immutable once stored; readers handed a reference keep a
	// consistent view even if the entry spills concurrently.
	data []byte
}

// ErrNoSpace is returned when an object cannot be admitted even after
// evicting every unpinned ephemeral object.
var ErrNoSpace = errors.New("cache: insufficient storage")

// Cache is a tiered (disk + optional RAM) object store. All methods are
// safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	dir     string
	entries map[string]*Entry // guarded by mu
	// disk holds every pending and ready entry: the disk tier's accounting,
	// every entry's pins and last use, and the eviction choice. Pending and
	// memory-tier entries are held, never disk victims; memory-tier entries
	// occupy no disk bytes there. Stamps are seconds since born on clock.
	disk  *Policy[string]  // guarded by mu
	clock func() time.Time // guarded by mu
	born  time.Time
	// memBudget caps memory-tier bytes; 0 disables the tier entirely.
	memBudget int64 // guarded by mu
	memUsed   int64 // memory-tier bytes, guarded by mu
	// evicted records names evicted since the last DrainEvicted call, so
	// the worker can send cache-invalid messages to the manager.
	evicted []string // guarded by mu
	// logf receives cleanup failures that have no caller to return to.
	logf func(format string, args ...any) // guarded by mu
	// vm receives hit/miss/insert accounting; nil disables it. Eviction
	// counts are intentionally NOT incremented here — they derive from
	// FileEvicted trace events through the metrics bridge, which is the
	// single writer for event-derived counters.
	vm *metrics.VineMetrics // guarded by mu
}

// partPrefix marks in-progress landings. Land writes bytes to a
// dot-prefixed part file or directory and renames it to the final cache
// path only after size and checksum verification, so adoption below can
// never resurrect a truncated transfer as a valid object: anything at a
// non-dot path is, by invariant, complete and verified.
const partPrefix = ".part-"

// New creates a cache rooted at dir with the given capacity in bytes. The
// directory is created if missing. Objects already present on disk (from a
// previous worker lifetime) are adopted as ready worker-lifetime entries:
// their content-addressed names make them valid across runs. Leftover part
// files from transfers interrupted by a crash are deleted, never adopted.
// The memory tier starts disabled; see SetMemoryBudget.
func New(dir string, capacity int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating %s: %w", dir, err)
	}
	c := &Cache{
		dir:     dir,
		entries: make(map[string]*Entry),
		disk:    NewPolicy[string](capacity),
		clock:   time.Now,
		born:    time.Now(),
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, partPrefix) {
			_ = os.RemoveAll(filepath.Join(dir, name))
			continue
		}
		if strings.HasPrefix(name, ".") {
			continue
		}
		size, isDir, err := diskUsage(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		c.entries[name] = &Entry{
			Name:     name,
			Size:     size,
			State:    StateReady,
			Lifetime: LifetimeWorker,
			Dir:      isDir,
		}
		c.disk.Add(name, name, size, LifetimeWorker, 0, false)
	}
	return c, nil
}

// nowLocked is the policy's stamp for this instant; the caller holds c.mu.
func (c *Cache) nowLocked() float64 { return c.clock().Sub(c.born).Seconds() }

// SetClock substitutes the time source, for deterministic tests.
func (c *Cache) SetClock(clock func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = clock
}

// SetLogger installs a destination for operational messages — cleanup
// failures on eviction paths that have no caller to return an error to.
// A nil logger silences them.
func (c *Cache) SetLogger(logf func(format string, args ...any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logf = logf
}

// SetMetrics installs the shared instrument set for hit/miss/insert
// accounting. A nil set (the default) records nothing.
func (c *Cache) SetMetrics(vm *metrics.VineMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vm = vm
	c.syncUsedLocked()
}

// SetMemoryBudget caps memory-tier bytes; n <= 0 disables the tier. If the
// new budget is below current memory-tier use, excess objects spill to
// disk immediately (LRU first).
func (c *Cache) SetMemoryBudget(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.memBudget = n
	if c.memUsed > c.memBudget {
		c.spillForSpaceLocked(0)
	}
}

// MemoryBudget returns the configured memory-tier budget in bytes.
func (c *Cache) MemoryBudget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memBudget
}

// MemUsed returns the bytes currently accounted to memory-tier objects.
func (c *Cache) MemUsed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memUsed
}

// syncUsedLocked publishes the current byte accounting; caller holds c.mu.
func (c *Cache) syncUsedLocked() {
	if c.vm != nil {
		c.vm.CacheUsedBytes.Set(float64(c.disk.Used()))
		c.vm.CacheMemUsedBytes.Set(float64(c.memUsed))
	}
}

// logErrLocked reports a background failure; the caller holds c.mu.
func (c *Cache) logErrLocked(format string, args ...any) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// diskUsage measures the bytes at path. The error is the Lstat failure for
// an absent path — callers decide whether absence is fatal (Commit) or
// skippable (adoption).
func diskUsage(path string) (int64, bool, error) {
	info, err := os.Lstat(path)
	if err != nil {
		return 0, false, err
	}
	if !info.IsDir() {
		return info.Size(), false, nil
	}
	var total int64
	filepath.WalkDir(path, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			total += fi.Size()
		}
		return nil
	})
	return total, true, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Capacity returns the configured storage capacity in bytes.
func (c *Cache) Capacity() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk.Capacity()
}

// Used returns the bytes currently accounted to disk-tier objects.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk.Used()
}

// Path returns the on-disk location of an object, whether or not it exists.
// Memory-tier objects have no bytes at this path until Materialize.
func (c *Cache) Path(name string) string {
	return filepath.Join(c.dir, name)
}

// Contains reports whether an object is present and ready.
func (c *Cache) Contains(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	return ok && e.State == StateReady
}

// Lookup returns a copy of the entry for name.
func (c *Cache) Lookup(name string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Reserve admits an object of the given expected size into the cache in
// pending state, evicting unpinned ephemeral objects if needed to make
// room. Size may be -1 when unknown; unknown sizes reserve no space up
// front and are accounted at Commit. Reserving an already-ready object is
// an error (immutability); reserving an already-pending object is
// idempotent and reports alreadyPending.
func (c *Cache) Reserve(name string, size int64, lifetime Lifetime) (alreadyPending bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok {
		switch e.State {
		case StateReady:
			return false, fmt.Errorf("cache: %s already present; objects are immutable", name)
		case StatePending:
			return true, nil
		case StateFailed:
			// Retry after failure: fall through and re-reserve.
			delete(c.entries, name)
		}
	}
	reserve := size
	if reserve < 0 {
		reserve = 0
	}
	if err := c.ensureSpaceLocked(reserve); err != nil {
		return false, err
	}
	c.entries[name] = &Entry{
		Name:     name,
		Size:     reserve,
		State:    StatePending,
		Lifetime: lifetime,
	}
	c.disk.Add(name, name, reserve, lifetime, c.nowLocked(), true)
	c.syncUsedLocked()
	return false, nil
}

// ensureSpaceLocked evicts the disk policy's victims until need bytes fit
// under capacity.
func (c *Cache) ensureSpaceLocked(need int64) error {
	victims, fits := c.disk.Victims(need)
	for _, name := range victims {
		c.removeLocked(name, true)
	}
	if !fits {
		return fmt.Errorf("%w: need %d, used %d of %d", ErrNoSpace, need, c.disk.Used(), c.disk.Capacity())
	}
	return nil
}

// spillForSpaceLocked spills memory-tier objects, in the disk policy's
// eviction order, until need bytes fit under the memory budget. Pinned
// objects are spillable: a spill changes where the bytes live, not whether
// they exist. Returns nil when the space exists.
func (c *Cache) spillForSpaceLocked(need int64) error {
	if c.memUsed+need <= c.memBudget {
		return nil
	}
	victims := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		if e.State == StateReady && e.Tier == TierMemory {
			victims = append(victims, e)
		}
	}
	slices.SortFunc(victims, func(a, b *Entry) int { return c.disk.Compare(a.Name, b.Name) })
	for _, v := range victims {
		if c.memUsed+need <= c.memBudget {
			break
		}
		if err := c.spillLocked(v); err != nil {
			c.logErrLocked("cache: spilling %s: %v", v.Name, err)
		}
	}
	if c.memUsed+need > c.memBudget {
		return fmt.Errorf("%w: memory tier needs %d, used %d of %d", ErrNoSpace, need, c.memUsed, c.memBudget)
	}
	return nil
}

// spillLocked moves one memory-tier object's bytes to disk, landed like
// any other object, and its accounting from the memory tier to the disk
// tier. The data slice already handed to readers stays valid; only the
// entry's tier flips.
func (c *Cache) spillLocked(e *Entry) error {
	if err := c.ensureSpaceLocked(e.Size); err != nil {
		return err
	}
	if err := c.Land(e.Name, e.Size, false, "", bytes.NewReader(e.data)); err != nil {
		return err
	}
	c.memUsed -= e.Size
	c.disk.Settle(e.Name, e.Size)
	e.Tier = TierDisk
	e.data = nil
	if c.vm != nil {
		c.vm.CacheMemSpills.Inc()
		c.vm.CacheMemSpillBytes.Add(e.Size)
	}
	c.syncUsedLocked()
	return nil
}

// PutBytes stores an object directly into the memory tier, spilling colder
// objects to disk if needed to fit the budget. The cache takes ownership
// of data, which must not be mutated afterwards. When the memory tier is
// disabled or cannot fit the object even after spilling, the bytes land in
// the disk tier instead — PutBytes always yields a ready object or an
// error, never a partial state.
func (c *Cache) PutBytes(name string, lifetime Lifetime, data []byte) error {
	size := int64(len(data))
	c.mu.Lock()
	if e, ok := c.entries[name]; ok {
		switch e.State {
		case StateReady:
			c.mu.Unlock()
			return fmt.Errorf("cache: %s already present; objects are immutable", name)
		case StatePending:
			c.mu.Unlock()
			return fmt.Errorf("cache: %s is already being materialized", name)
		case StateFailed:
			delete(c.entries, name)
		}
	}
	if c.memBudget > 0 && size <= c.memBudget {
		if err := c.spillForSpaceLocked(size); err == nil {
			c.entries[name] = &Entry{
				Name:     name,
				Size:     size,
				State:    StateReady,
				Lifetime: lifetime,
				Tier:     TierMemory,
				data:     data,
			}
			c.disk.Add(name, name, 0, lifetime, c.nowLocked(), true)
			c.memUsed += size
			if c.vm != nil {
				c.vm.CacheMemInserts.Inc()
				c.vm.CacheMemInsertBytes.Add(size)
			}
			c.syncUsedLocked()
			c.mu.Unlock()
			return nil
		}
	}
	c.mu.Unlock()
	_, err := c.Receive(name, size, lifetime, func() error {
		return c.Land(name, size, false, "", bytes.NewReader(data))
	})
	return err
}

// Commit marks a pending object ready, adjusting accounting to its actual
// on-disk size, which it returns: the one size the worker reports. The
// object's bytes must already be at Path(name); a commit with nothing at
// that path fails the entry rather than minting a ready zero-byte object
// (a failed materialization must look failed).
func (c *Cache) Commit(name string) (int64, error) {
	actual, isDir, statErr := diskUsage(c.Path(name))
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return 0, fmt.Errorf("cache: commit of unreserved object %s", name)
	}
	if e.State == StateReady {
		return 0, fmt.Errorf("cache: double commit of %s", name)
	}
	if statErr != nil {
		c.disk.Remove(name)
		e.Size = 0
		e.State = StateFailed
		e.Err = fmt.Errorf("cache: commit of absent object %s: %w", name, statErr)
		c.syncUsedLocked()
		return 0, e.Err
	}
	e.Size = actual
	e.Dir = isDir
	e.State = StateReady
	e.Tier = TierDisk
	e.Err = nil
	if c.vm != nil {
		c.vm.CacheInserts.Inc()
		c.vm.CacheInsertBytes.Add(actual)
	}
	// The object may have turned out larger than reserved: trade its
	// reservation for its actual size, evicting others, never it, if that
	// no longer fits.
	c.disk.Remove(name)
	if err := c.ensureSpaceLocked(actual); err != nil {
		c.removeLocked(name, false)
		return 0, fmt.Errorf("cache: %s exceeded remaining capacity: %w", name, err)
	}
	c.disk.Add(name, name, actual, e.Lifetime, c.nowLocked(), false)
	c.syncUsedLocked()
	return actual, nil
}

// Fail marks a pending object as failed and releases its reservation.
func (c *Cache) Fail(name string, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok || e.State == StateReady {
		return
	}
	c.disk.Remove(name)
	e.Size = 0
	e.State = StateFailed
	e.Err = cause
	c.syncUsedLocked()
	if err := os.RemoveAll(c.Path(name)); err != nil {
		// The entry stays failed either way, but leftover bytes are no
		// longer accounted — surface that the disk disagrees with the books.
		c.logErrLocked("cache: removing failed object %s: %v", name, err)
	}
}

// Receive runs the one sequence every received object goes through:
// it reserves name (size bytes advertised), calls land to write the bytes
// through Land, then commits the result, or fails the entry if land
// failed, and returns the committed size. The reservation holds across
// whatever retries land makes. An object that is already present or
// already being materialized is refused without touching its entry.
func (c *Cache) Receive(name string, size int64, lifetime Lifetime, land func() error) (int64, error) {
	already, err := c.Reserve(name, size, lifetime)
	if err == nil && already {
		err = fmt.Errorf("cache: %s is already being materialized", name)
	}
	if err != nil {
		return 0, err
	}
	if err := land(); err != nil {
		c.Fail(name, err)
		return 0, err
	}
	return c.Commit(name)
}

// Land writes the bytes of a reserved object as they arrive: into a fresh
// part file, or, for a directory object, unpacked from a tar stream into a
// part directory. It reads exactly size bytes from r (any number when size
// is negative), checks their hex MD5 against sum when sum is not empty,
// and only then renames the part to Path(name). Land is the one writer of
// a final cache path apart from a sandbox's output rename: a landing cut
// short leaves only a part, which New purges rather than adopts. On error
// the part is gone and the reservation stays, for the caller to land again
// or Fail.
func (c *Cache) Land(name string, size int64, dir bool, sum string, r io.Reader) (err error) {
	var digest hash.Hash
	if sum != "" {
		digest = md5.New()
		r = io.TeeReader(r, digest)
	}
	body := &io.LimitedReader{R: r, N: size}
	if size < 0 {
		body.N = math.MaxInt64
	}
	var part string
	if dir {
		if part, err = os.MkdirTemp(c.dir, partPrefix+"*"); err != nil {
			return err
		}
		err = tardir.Unpack(body, part)
	} else {
		f, ferr := os.CreateTemp(c.dir, partPrefix+"*")
		if ferr != nil {
			return ferr
		}
		part = f.Name()
		_, err = protocol.CopyBuffer(f, body)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	defer func() {
		if err != nil {
			_ = os.RemoveAll(part) // best-effort cleanup; the landing error is what matters
		}
	}()
	if err != nil {
		return err
	}
	// The unpacker stops at the end-of-archive marker, which a truncated
	// stream can carry well before its advertised end: drain the rest, so
	// the count and the digest cover the whole payload.
	if _, err := io.Copy(io.Discard, body); err != nil {
		return err
	}
	if size >= 0 && body.N != 0 {
		return fmt.Errorf("cache: %s: got %d of %d bytes", name, size-body.N, size)
	}
	if digest != nil {
		if got := hex.EncodeToString(digest.Sum(nil)); got != sum {
			return fmt.Errorf("cache: %s: checksum mismatch (got %s want %s)", name, got, sum)
		}
	}
	return os.Rename(part, c.Path(name))
}

// Open returns a reader over a ready plain-file object and its size.
// Memory-tier objects are served straight from RAM, disk-tier objects from
// their file; the read never moves an object between tiers.
func (c *Cache) Open(name string) (io.ReadCloser, int64, error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok || e.State != StateReady {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("cache: %s not present", name)
	}
	if e.Dir {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("cache: %s is a directory; transfer as archive", name)
	}
	c.disk.Touch(name, c.nowLocked())
	if e.Tier == TierMemory {
		if c.vm != nil {
			c.vm.CacheMemHits.Inc()
		}
		r := io.NopCloser(bytes.NewReader(e.data))
		size := e.Size
		c.mu.Unlock()
		return r, size, nil
	}
	size := e.Size
	c.mu.Unlock()
	f, err := os.Open(c.Path(name))
	if err != nil {
		return nil, 0, err
	}
	return f, size, nil
}

// MemoryBytes returns the raw bytes of a ready memory-tier object, or
// (nil, false) when the object is absent or disk-resident. The returned
// slice is immutable shared storage; callers must not modify it. Counts as
// an access for LRU purposes.
func (c *Cache) MemoryBytes(name string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok || e.State != StateReady {
		return nil, false
	}
	c.disk.Touch(name, c.nowLocked())
	if e.Tier != TierMemory {
		return nil, false
	}
	if c.vm != nil {
		c.vm.CacheMemHits.Inc()
	}
	return e.data, true
}

// Materialize guarantees a ready object's bytes exist at Path(name),
// spilling it out of the memory tier if needed. Callers that hand the path
// to something outside the cache (sandbox input links, file hashing) must
// materialize first; Open does not require it.
func (c *Cache) Materialize(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok || e.State != StateReady {
		return fmt.Errorf("cache: %s not present", name)
	}
	if e.Tier != TierMemory {
		return nil
	}
	return c.spillLocked(e)
}

// Pin marks an object in use by a task, protecting it from eviction, and
// refreshes its LRU position. Pinning a non-ready object is an error.
func (c *Cache) Pin(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok || e.State != StateReady {
		if c.vm != nil {
			c.vm.CacheMisses.Inc()
		}
		return fmt.Errorf("cache: pinning absent object %s", name)
	}
	if c.vm != nil {
		c.vm.CacheHits.Inc()
	}
	c.disk.Pin(name, c.nowLocked())
	return nil
}

// Unpin releases a task's use of an object. Releasing the last pin of an
// object whose deletion was deferred removes it now; the removal is
// recorded for DrainEvicted so the worker reports it through the
// cache-invalid path and the manager's replica table converges.
func (c *Cache) Unpin(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok && c.disk.Unpin(name) == 0 && e.deferred {
		c.removeLocked(name, true)
	}
}

// Delete removes an object at the manager's direction. A pinned object is
// not removed immediately — running tasks keep their inputs — but the
// deletion is deferred and happens when the last pin is released, reported
// through DrainEvicted like an eviction.
func (c *Cache) Delete(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok && c.disk.Pinned(name) {
		e.deferred = true
		return
	}
	c.removeLocked(name, false)
}

func (c *Cache) removeLocked(name string, recordEviction bool) {
	e, ok := c.entries[name]
	if !ok {
		return
	}
	if e.Tier == TierMemory {
		c.memUsed -= e.Size
		e.data = nil
	}
	c.disk.Remove(name)
	delete(c.entries, name)
	c.syncUsedLocked()
	if e.Tier != TierMemory {
		if err := os.RemoveAll(c.Path(name)); err != nil {
			// Failing to delete an evicted object means its bytes still occupy
			// the disk while the accounting says they don't; make it visible.
			c.logErrLocked("cache: removing %s: %v", name, err)
		}
	}
	if recordEviction {
		c.evicted = append(c.evicted, name)
	}
}

// DrainEvicted returns and clears the list of objects evicted for space
// (or removed by a deferred delete) since the last call. The worker
// reports these to the manager as cache-invalid messages so the replica
// table stays accurate.
func (c *Cache) DrainEvicted() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.evicted
	c.evicted = nil
	return out
}

// EndWorkflow deletes all task- and workflow-lifetime objects, implementing
// the automatic cleanup at workflow conclusion (§3.2). Pinned ephemerals
// are marked for deferred deletion and removed at their final Unpin, so no
// ephemeral bytes outlive the workflow indefinitely. Returns the names
// removed now.
func (c *Cache) EndWorkflow() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var removed []string
	for name, e := range c.entries {
		if e.Lifetime == LifetimeWorker {
			continue
		}
		if c.disk.Pinned(name) {
			e.deferred = true
			continue
		}
		removed = append(removed, name)
		c.removeLocked(name, false)
	}
	return removed
}

// List returns a snapshot of all entries, ordered by name.
func (c *Cache) List() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, *e)
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Name, b.Name) })
	return out
}
