package cache

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// memCache returns a cache with both a disk capacity and a memory budget.
func memCache(t *testing.T, capacity, budget int64) *Cache {
	t.Helper()
	c := newCache(t, capacity)
	c.SetMemoryBudget(budget)
	return c
}

func putBytes(t *testing.T, c *Cache, name, content string, lt Lifetime) {
	t.Helper()
	if err := c.PutBytes(name, lt, []byte(content)); err != nil {
		t.Fatalf("putBytes %s: %v", name, err)
	}
}

func readAll(t *testing.T, c *Cache, name string) string {
	t.Helper()
	r, _, err := c.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(b)
}

func TestPutBytesLandsInMemoryTier(t *testing.T) {
	c := memCache(t, 1<<20, 1<<16)
	putBytes(t, c, "temp-a", "resident bytes", LifetimeWorkflow)
	e, ok := c.Lookup("temp-a")
	if !ok || e.Tier != TierMemory {
		t.Fatalf("expected memory-tier entry, got %+v ok=%v", e, ok)
	}
	if got := readAll(t, c, "temp-a"); got != "resident bytes" {
		t.Fatalf("read back %q", got)
	}
	if _, err := os.Lstat(c.Path("temp-a")); err == nil {
		t.Fatal("memory-tier object has an on-disk file")
	}
	if c.MemUsed() != int64(len("resident bytes")) {
		t.Fatalf("memUsed = %d", c.MemUsed())
	}
	if c.Used() != 0 {
		t.Fatalf("disk used = %d for a pure memory insert", c.Used())
	}
}

func TestPutBytesFallsBackToDiskWithoutBudget(t *testing.T) {
	c := newCache(t, 1<<20) // no memory budget
	putBytes(t, c, "temp-a", "spinning rust", LifetimeWorkflow)
	e, _ := c.Lookup("temp-a")
	if e.Tier != TierDisk {
		t.Fatalf("expected disk tier, got %v", e.Tier)
	}
	if _, err := os.Lstat(c.Path("temp-a")); err != nil {
		t.Fatalf("disk fallback left no file: %v", err)
	}
	if got := readAll(t, c, "temp-a"); got != "spinning rust" {
		t.Fatalf("read back %q", got)
	}
}

func TestMemoryPressureSpillsLRU(t *testing.T) {
	c := memCache(t, 1<<20, 20)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { now = now.Add(time.Second); return now })
	putBytes(t, c, "temp-old", "0123456789", LifetimeWorkflow) // 10 bytes
	putBytes(t, c, "temp-new", "0123456789", LifetimeWorkflow) // 10 bytes, budget full
	// Touch temp-new so temp-old is the LRU victim.
	readAll(t, c, "temp-new")
	putBytes(t, c, "temp-big", "abcdefgh", LifetimeWorkflow) // forces a spill
	old, _ := c.Lookup("temp-old")
	if old.Tier != TierDisk {
		t.Fatalf("LRU object not spilled: %+v", old)
	}
	if _, err := os.Lstat(c.Path("temp-old")); err != nil {
		t.Fatalf("spilled object missing on disk: %v", err)
	}
	if got := readAll(t, c, "temp-old"); got != "0123456789" {
		t.Fatalf("spilled content %q", got)
	}
	neu, _ := c.Lookup("temp-new")
	if neu.Tier != TierMemory {
		t.Fatalf("recently used object was spilled: %+v", neu)
	}
	if c.MemUsed() > 20 {
		t.Fatalf("memory budget exceeded: %d", c.MemUsed())
	}
}

// openObjectRead reads name the way the worker serves a plain file: a
// MemoryBytes probe, then Open when the object is not memory-resident.
func openObjectRead(t *testing.T, c *Cache, name string) string {
	t.Helper()
	if b, ok := c.MemoryBytes(name); ok {
		return string(b)
	}
	return readAll(t, c, name)
}

// TestReadLeavesDiskObjectInPlace: serving a disk object, however often,
// never moves it into the memory tier. Its file stays where it was, so a
// task that pinned the object and materialized it can still link Path
// into its sandbox while peers read the same object.
func TestReadLeavesDiskObjectInPlace(t *testing.T) {
	c := memCache(t, 1<<20, 1<<16)
	put(t, c, "file-in", "task input", LifetimeWorkflow)
	before, err := os.Lstat(c.Path("file-in"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if e, _ := c.Lookup("file-in"); e.Tier != TierDisk {
			t.Fatalf("%s: object moved to tier %v", when, e.Tier)
		}
		after, err := os.Lstat(c.Path("file-in"))
		if err != nil {
			t.Fatalf("%s: disk copy gone: %v", when, err)
		}
		if !os.SameFile(before, after) {
			t.Fatalf("%s: disk copy replaced", when)
		}
		if c.MemUsed() != 0 || c.Used() != int64(len("task input")) {
			t.Fatalf("%s: accounting moved: mem=%d disk=%d", when, c.MemUsed(), c.Used())
		}
	}
	for i := 0; i < 4; i++ {
		if got := openObjectRead(t, c, "file-in"); got != "task input" {
			t.Fatalf("read %d = %q", i, got)
		}
	}
	check("unpinned reads")
	if err := c.Pin("file-in"); err != nil {
		t.Fatal(err)
	}
	if err := c.Materialize("file-in"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		openObjectRead(t, c, "file-in")
	}
	check("pinned reads")
	c.Unpin("file-in")
	openObjectRead(t, c, "file-in")
	check("reads after unpin")
}

func TestMaterializeSpillsForSandboxUse(t *testing.T) {
	c := memCache(t, 1<<20, 1<<16)
	putBytes(t, c, "temp-a", "need a real path", LifetimeWorkflow)
	if err := c.Materialize("temp-a"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.Path("temp-a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "need a real path" {
		t.Fatalf("materialized content %q", b)
	}
	if e, _ := c.Lookup("temp-a"); e.Tier != TierDisk {
		t.Fatalf("materialize left tier %v", e.Tier)
	}
	// Idempotent on disk-tier objects.
	if err := c.Materialize("temp-a"); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryReaderSurvivesConcurrentSpill(t *testing.T) {
	c := memCache(t, 1<<20, 16)
	putBytes(t, c, "temp-a", "0123456789", LifetimeWorkflow)
	r, _, err := c.Open("temp-a")
	if err != nil {
		t.Fatal(err)
	}
	// Force a spill of temp-a while the reader is outstanding.
	putBytes(t, c, "temp-b", "abcdefghij", LifetimeWorkflow)
	if e, _ := c.Lookup("temp-a"); e.Tier != TierDisk {
		t.Fatalf("expected temp-a spilled, got %+v", e)
	}
	b, err := io.ReadAll(r)
	if err != nil || string(b) != "0123456789" {
		t.Fatalf("reader broken across spill: %q %v", b, err)
	}
}

// --- Regression tests for the cache-lifecycle bugfixes (fail on seed). ---

func TestCommitAbsentObjectFails(t *testing.T) {
	c := newCache(t, 1<<20)
	if _, err := c.Reserve("file-ghost", 64, LifetimeWorkflow); err != nil {
		t.Fatal(err)
	}
	// Nothing was ever written at Path("file-ghost"): the materialization
	// failed silently. Commit must refuse to mint a ready object.
	_, err := c.Commit("file-ghost")
	if err == nil {
		t.Fatal("commit of absent object succeeded")
	}
	if c.Contains("file-ghost") {
		t.Fatal("absent object is ready after failed commit")
	}
	e, ok := c.Lookup("file-ghost")
	if !ok || e.State != StateFailed {
		t.Fatalf("entry not failed: %+v ok=%v", e, ok)
	}
	if c.Used() != 0 {
		t.Fatalf("reservation leaked: used=%d", c.Used())
	}
	// The failure is retryable, like any other failed materialization.
	if _, err := c.Reserve("file-ghost", 5, LifetimeWorkflow); err != nil {
		t.Fatalf("re-reserve after failed commit: %v", err)
	}
}

func TestDeleteWhilePinnedIsDeferredToUnpin(t *testing.T) {
	c := newCache(t, 1<<20)
	put(t, c, "file-a", "pinned content", LifetimeWorkflow)
	if err := c.Pin("file-a"); err != nil {
		t.Fatal(err)
	}
	c.Delete("file-a")
	if !c.Contains("file-a") {
		t.Fatal("pinned object deleted out from under its task")
	}
	c.Unpin("file-a")
	if c.Contains("file-a") {
		t.Fatal("deferred delete not applied at unpin")
	}
	if _, err := os.Lstat(c.Path("file-a")); err == nil {
		t.Fatal("deferred delete left bytes on disk")
	}
	// The removal must surface through the cache-invalid reporting path.
	drained := c.DrainEvicted()
	if len(drained) != 1 || drained[0] != "file-a" {
		t.Fatalf("deferred delete not reported via DrainEvicted: %v", drained)
	}
}

func TestDeleteWhileMultiplyPinnedWaitsForLastPin(t *testing.T) {
	c := newCache(t, 1<<20)
	put(t, c, "file-a", "shared", LifetimeWorkflow)
	c.Pin("file-a")
	c.Pin("file-a")
	c.Delete("file-a")
	c.Unpin("file-a")
	if !c.Contains("file-a") {
		t.Fatal("object removed while still pinned by another task")
	}
	c.Unpin("file-a")
	if c.Contains("file-a") {
		t.Fatal("object not removed after last unpin")
	}
}

func TestEndWorkflowDefersPinnedEphemerals(t *testing.T) {
	c := newCache(t, 1<<20)
	put(t, c, "temp-busy", "in use", LifetimeWorkflow)
	put(t, c, "temp-idle", "idle", LifetimeTask)
	put(t, c, "file-sw", "software", LifetimeWorker)
	c.Pin("temp-busy")
	removed := c.EndWorkflow()
	if len(removed) != 1 || removed[0] != "temp-idle" {
		t.Fatalf("EndWorkflow removed %v", removed)
	}
	if !c.Contains("temp-busy") {
		t.Fatal("pinned ephemeral removed mid-task")
	}
	c.Unpin("temp-busy")
	if c.Contains("temp-busy") {
		t.Fatal("pinned ephemeral leaked past its unpin after EndWorkflow")
	}
	if !c.Contains("file-sw") {
		t.Fatal("worker-lifetime object removed by EndWorkflow")
	}
	drained := c.DrainEvicted()
	if len(drained) != 1 || drained[0] != "temp-busy" {
		t.Fatalf("deferred removal not reported: %v", drained)
	}
}

// --- Concurrency tests: spill racing Open/Pin, commit-while-spilling. ---

func TestConcurrentSpillVsOpenAndPin(t *testing.T) {
	c := memCache(t, 1<<20, 64)
	const n = 8
	for i := 0; i < n; i++ {
		putBytes(t, c, "temp-"+strconv.Itoa(i), fmt.Sprintf("object-%d", i), LifetimeWorkflow)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < n; i++ {
		name := "temp-" + strconv.Itoa(i)
		want := fmt.Sprintf("object-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, _, err := c.Open(name)
				if err != nil {
					t.Errorf("open %s: %v", name, err)
					return
				}
				b, err := io.ReadAll(r)
				r.Close()
				if err != nil || string(b) != want {
					t.Errorf("read %s: %q %v", name, b, err)
					return
				}
				if err := c.Pin(name); err != nil {
					t.Errorf("pin %s: %v", name, err)
					return
				}
				c.Unpin(name)
			}
		}()
	}
	// Meanwhile churn inserts to drive spills.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			name := "temp-churn-" + strconv.Itoa(i)
			if err := c.PutBytes(name, LifetimeTask, []byte("churnchurn")); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
			c.Delete(name)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestConcurrentCommitWhileSpilling(t *testing.T) {
	c := memCache(t, 1<<20, 32)
	var wg sync.WaitGroup
	// Writer A: disk-tier Reserve/write/Commit cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			name := "file-c" + strconv.Itoa(i)
			if _, err := c.Reserve(name, -1, LifetimeWorkflow); err != nil {
				t.Errorf("reserve: %v", err)
				return
			}
			if err := os.WriteFile(c.Path(name), []byte("committed"), 0o644); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if _, err := c.Commit(name); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()
	// Writer B: memory inserts that constantly overflow the budget and spill.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := c.PutBytes("temp-m"+strconv.Itoa(i), LifetimeWorkflow, []byte("spillspillspill!")); err != nil {
				t.Errorf("putBytes: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	assertTierAccounting(t, c)
}

// assertTierAccounting checks byte-accounting conservation: every ready or
// pending entry is accounted in exactly the tier it occupies, and the
// tier totals match the entry sums.
func assertTierAccounting(t *testing.T, c *Cache) {
	t.Helper()
	var disk, mem int64
	for _, e := range c.List() {
		switch {
		case e.State == StateFailed:
		case e.Tier == TierMemory:
			mem += e.Size
		default:
			disk += e.Size
		}
	}
	if got := c.Used(); got != disk {
		t.Fatalf("disk accounting diverged: used=%d, entries sum to %d", got, disk)
	}
	if got := c.MemUsed(); got != mem {
		t.Fatalf("memory accounting diverged: memUsed=%d, entries sum to %d", got, mem)
	}
	if budget := c.MemoryBudget(); budget > 0 && mem > budget {
		t.Fatalf("memory budget exceeded: %d of %d", mem, budget)
	}
}

// TestChaosTierAccountingConservation drives the tiered cache with a
// seeded random mix of inserts, reads, pins, deletes, and workflow ends
// under a deliberately tight memory budget, then asserts byte-accounting
// conservation between the tiers. Runs under -race via `make chaos`.
func TestChaosTierAccountingConservation(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("VINE_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad VINE_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	c := memCache(t, 1<<20, 256)
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		rng := rand.New(rand.NewSource(seed + int64(g)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				name := "temp-x" + strconv.Itoa(rng.Intn(32))
				switch rng.Intn(7) {
				case 0:
					c.PutBytes(name, Lifetime(rng.Intn(3)), make([]byte, rng.Intn(96)))
				case 1:
					putReader(c, name, 8, Lifetime(rng.Intn(3)), strings.NewReader("12345678"))
				case 2:
					if r, _, err := c.Open(name); err == nil {
						io.ReadAll(r)
						r.Close()
					}
				case 3:
					if c.Pin(name) == nil {
						c.Unpin(name)
					}
				case 4:
					c.Delete(name)
				case 5:
					c.Materialize(name)
				case 6:
					if rng.Intn(16) == 0 {
						c.EndWorkflow()
					} else {
						c.DrainEvicted()
					}
				}
			}
		}()
	}
	wg.Wait()
	assertTierAccounting(t, c)
}
