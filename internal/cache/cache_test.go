package cache

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"taskvine/internal/tardir"
)

func newCache(t *testing.T, capacity int64) *Cache {
	t.Helper()
	c, err := New(t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func put(t *testing.T, c *Cache, name string, content string, lt Lifetime) {
	t.Helper()
	if err := putReader(c, name, int64(len(content)), lt, strings.NewReader(content)); err != nil {
		t.Fatalf("put %s: %v", name, err)
	}
}

// putReader receives a plain-file object of size bytes read from r.
func putReader(c *Cache, name string, size int64, lt Lifetime, r io.Reader) error {
	_, err := c.Receive(name, size, lt, func() error { return c.Land(name, size, false, "", r) })
	return err
}

func TestPutOpenRoundTrip(t *testing.T) {
	c := newCache(t, 1<<20)
	put(t, c, "file-abc", "hello cache", LifetimeWorkflow)
	if !c.Contains("file-abc") {
		t.Fatal("object not present after put")
	}
	r, size, err := c.Open("file-abc")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if size != 11 {
		t.Fatalf("size = %d", size)
	}
	b, _ := io.ReadAll(r)
	if string(b) != "hello cache" {
		t.Fatalf("content = %q", b)
	}
	if c.Used() != 11 {
		t.Fatalf("used = %d", c.Used())
	}
}

func TestImmutability(t *testing.T) {
	c := newCache(t, 1<<20)
	put(t, c, "file-abc", "v1", LifetimeWorker)
	if err := putReader(c, "file-abc", 2, LifetimeWorker, strings.NewReader("v2")); err == nil {
		t.Fatal("overwrite of ready object accepted")
	}
}

func TestReservePendingIdempotent(t *testing.T) {
	c := newCache(t, 1<<20)
	already, err := c.Reserve("url-x", 100, LifetimeWorkflow)
	if err != nil || already {
		t.Fatalf("first reserve: already=%v err=%v", already, err)
	}
	already, err = c.Reserve("url-x", 100, LifetimeWorkflow)
	if err != nil || !already {
		t.Fatalf("second reserve: already=%v err=%v", already, err)
	}
	if c.Contains("url-x") {
		t.Fatal("pending object reported ready")
	}
}

func TestFailThenRetry(t *testing.T) {
	c := newCache(t, 1<<20)
	if _, err := c.Reserve("url-x", 100, LifetimeWorkflow); err != nil {
		t.Fatal(err)
	}
	c.Fail("url-x", errors.New("network down"))
	e, ok := c.Lookup("url-x")
	if !ok || e.State != StateFailed || e.Err == nil {
		t.Fatalf("entry after fail = %+v", e)
	}
	if c.Used() != 0 {
		t.Fatalf("failed reservation still accounted: used=%d", c.Used())
	}
	// A later retry can re-reserve.
	already, err := c.Reserve("url-x", 100, LifetimeWorkflow)
	if err != nil || already {
		t.Fatalf("retry reserve: already=%v err=%v", already, err)
	}
}

func TestCommitAdjustsToActualSize(t *testing.T) {
	c := newCache(t, 1<<20)
	if _, err := c.Reserve("task-out", 10, LifetimeWorkflow); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path("task-out"), bytes.Repeat([]byte("x"), 999), 0o644); err != nil {
		t.Fatal(err)
	}
	if size, err := c.Commit("task-out"); err != nil || size != 999 {
		t.Fatalf("commit = %d, %v; want 999", size, err)
	}
	if c.Used() != 999 {
		t.Fatalf("used = %d want 999", c.Used())
	}
}

// Victims alike in lifetime and last use are evicted in name order, the
// same on every run, though the cache gathers them in map order.
func TestEvictionOrderTieBreaksByName(t *testing.T) {
	for run := 0; run < 20; run++ {
		c := newCache(t, 80)
		now := time.Unix(1000, 0)
		c.SetClock(func() time.Time { return now })
		for _, name := range []string{"obj-e", "obj-b", "obj-h", "obj-a", "obj-g", "obj-c", "obj-f", "obj-d"} {
			put(t, c, name, strings.Repeat("x", 10), LifetimeWorkflow)
		}
		put(t, c, "incoming", strings.Repeat("y", 30), LifetimeWorkflow)
		if ev := c.DrainEvicted(); fmt.Sprint(ev) != "[obj-a obj-b obj-c]" {
			t.Fatalf("run %d evicted %v, want [obj-a obj-b obj-c]", run, ev)
		}
	}
}

func TestEvictionOrderByLifetimeThenLRU(t *testing.T) {
	c := newCache(t, 100)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })

	put(t, c, "worker-old", strings.Repeat("w", 30), LifetimeWorker)
	now = now.Add(time.Second)
	put(t, c, "wf-old", strings.Repeat("a", 30), LifetimeWorkflow)
	now = now.Add(time.Second)
	put(t, c, "wf-new", strings.Repeat("b", 30), LifetimeWorkflow)
	now = now.Add(time.Second)

	// Need 50 bytes with 10 free: should evict wf-old first (oldest
	// workflow-lifetime), then wf-new, leaving the worker-lifetime object
	// alone.
	put(t, c, "incoming", strings.Repeat("c", 50), LifetimeWorkflow)

	if c.Contains("wf-old") {
		t.Fatal("oldest workflow object survived eviction")
	}
	if c.Contains("wf-new") {
		t.Fatal("second workflow object survived eviction (needed 50 bytes)")
	}
	if !c.Contains("worker-old") {
		t.Fatal("worker-lifetime object evicted before ephemeral ones")
	}
	if !c.Contains("incoming") {
		t.Fatal("incoming object missing")
	}
	ev := c.DrainEvicted()
	if len(ev) != 2 {
		t.Fatalf("evicted = %v", ev)
	}
	if len(c.DrainEvicted()) != 0 {
		t.Fatal("DrainEvicted did not clear")
	}
}

func TestPinnedObjectsSurviveEviction(t *testing.T) {
	c := newCache(t, 100)
	put(t, c, "pinned", strings.Repeat("p", 60), LifetimeTask)
	if err := c.Pin("pinned"); err != nil {
		t.Fatal(err)
	}
	// 60 used, need 60 more: without eviction capacity is exceeded.
	err := putReader(c, "big", 60, LifetimeWorkflow, strings.NewReader(strings.Repeat("b", 60)))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	if !c.Contains("pinned") {
		t.Fatal("pinned object evicted")
	}
	c.Unpin("pinned")
	put(t, c, "big2", strings.Repeat("b", 60), LifetimeWorkflow)
	if c.Contains("pinned") {
		t.Fatal("unpinned object not evictable")
	}
}

func TestDeleteRespectsPins(t *testing.T) {
	c := newCache(t, 1000)
	put(t, c, "obj", "data", LifetimeWorkflow)
	c.Pin("obj")
	c.Delete("obj")
	if !c.Contains("obj") {
		t.Fatal("pinned object deleted")
	}
	c.Unpin("obj")
	c.Delete("obj")
	if c.Contains("obj") {
		t.Fatal("object survived delete")
	}
	if _, err := os.Stat(c.Path("obj")); !os.IsNotExist(err) {
		t.Fatal("deleted object still on disk")
	}
}

func TestEndWorkflow(t *testing.T) {
	c := newCache(t, 1000)
	put(t, c, "task-a", "1", LifetimeTask)
	put(t, c, "wf-b", "22", LifetimeWorkflow)
	put(t, c, "worker-c", "333", LifetimeWorker)
	removed := c.EndWorkflow()
	if len(removed) != 2 {
		t.Fatalf("removed = %v", removed)
	}
	if c.Contains("task-a") || c.Contains("wf-b") {
		t.Fatal("ephemeral objects survived end of workflow")
	}
	if !c.Contains("worker-c") {
		t.Fatal("worker-lifetime object removed at end of workflow")
	}
	if c.Used() != 3 {
		t.Fatalf("used = %d", c.Used())
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := putReader(c1, "file-persist", 9, LifetimeWorker, strings.NewReader("keep this")); err != nil {
		t.Fatal(err)
	}
	// Simulate worker restart: a fresh cache over the same directory
	// adopts worker-lifetime objects (their names are content-addressed).
	c2, err := New(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Contains("file-persist") {
		t.Fatal("object lost across restart")
	}
	e, _ := c2.Lookup("file-persist")
	if e.Lifetime != LifetimeWorker || e.Size != 9 {
		t.Fatalf("adopted entry = %+v", e)
	}
	if c2.Used() != 9 {
		t.Fatalf("used = %d", c2.Used())
	}
}

func TestDirectoryObjects(t *testing.T) {
	c := newCache(t, 1000)
	if _, err := c.Reserve("dir-tree", -1, LifetimeWorker); err != nil {
		t.Fatal(err)
	}
	root := c.Path("dir-tree")
	if err := os.MkdirAll(filepath.Join(root, "bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(root, "bin", "tool"), []byte("12345"), 0o755)
	os.WriteFile(filepath.Join(root, "README"), []byte("123"), 0o644)
	if size, err := c.Commit("dir-tree"); err != nil || size != 8 {
		t.Fatalf("commit = %d, %v; want 8", size, err)
	}
	e, _ := c.Lookup("dir-tree")
	if !e.Dir || e.Size != 8 {
		t.Fatalf("dir entry = %+v", e)
	}
	if _, _, err := c.Open("dir-tree"); err == nil {
		t.Fatal("Open of directory object should fail")
	}
}

func TestCommitOversizedObjectEvictsOthers(t *testing.T) {
	c := newCache(t, 100)
	put(t, c, "victim", strings.Repeat("v", 80), LifetimeWorkflow)
	if _, err := c.Reserve("unknown-size", -1, LifetimeWorkflow); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(c.Path("unknown-size"), bytes.Repeat([]byte("x"), 90), 0o644)
	if _, err := c.Commit("unknown-size"); err != nil {
		t.Fatal(err)
	}
	if c.Contains("victim") {
		t.Fatal("victim survived; cache must be over capacity")
	}
	if !c.Contains("unknown-size") {
		t.Fatal("committed object evicted itself")
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("capacity invariant violated: used=%d cap=%d", c.Used(), c.Capacity())
	}
}

func TestCommitHugeObjectFails(t *testing.T) {
	c := newCache(t, 50)
	if _, err := c.Reserve("huge", -1, LifetimeWorkflow); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(c.Path("huge"), bytes.Repeat([]byte("x"), 200), 0o644)
	if _, err := c.Commit("huge"); err == nil {
		t.Fatal("object larger than whole cache committed")
	}
	if c.Used() != 0 {
		t.Fatalf("used = %d after failed commit", c.Used())
	}
}

func TestShortWriteFailsPut(t *testing.T) {
	c := newCache(t, 1000)
	err := putReader(c, "trunc", 100, LifetimeWorkflow, strings.NewReader("only ten b"))
	if err == nil {
		t.Fatal("short payload committed")
	}
	if c.Contains("trunc") {
		t.Fatal("truncated object present")
	}
}

// Property: under arbitrary put/delete sequences the cache never exceeds
// capacity and never loses accounting.
func TestQuickCapacityInvariant(t *testing.T) {
	c := newCache(t, 500)
	i := 0
	f := func(sizes []uint16, deletes []bool) bool {
		for k, sz := range sizes {
			size := int64(sz % 300)
			name := "obj-" + string(rune('a'+i%26)) + "-" + time.Now().Format("150405") + "-" + itoa(i)
			i++
			lt := Lifetime(k % 3)
			content := strings.Repeat("z", int(size))
			err := putReader(c, name, size, lt, strings.NewReader(content))
			if err != nil && !errors.Is(err, ErrNoSpace) {
				t.Logf("unexpected error: %v", err)
				return false
			}
			if c.Used() > c.Capacity() {
				return false
			}
			if k < len(deletes) && deletes[k] {
				c.Delete(name)
			}
		}
		return c.Used() <= c.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPartFilesPurgedNotAdopted(t *testing.T) {
	// A crash can leave .part- temporaries (in-flight transfers) in the
	// cache directory. A fresh cache must remove them and must never adopt
	// one as a ready object — they hold unverified bytes.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".part-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, ".part-tree"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "file-whole"), []byte("good"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains("file-whole") {
		t.Fatal("complete object not adopted")
	}
	if c.Contains(".part-123") || c.Contains(".part-tree") {
		t.Fatal("part temporary adopted as a ready object")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".part-") {
			t.Fatalf("part temporary %s survived startup purge", e.Name())
		}
	}
	if c.Used() != 4 {
		t.Fatalf("used = %d; part bytes must not count", c.Used())
	}
}

// TestPartLifecycle drives Land through each outcome: a verified file or
// tree is renamed into place and commits; a short payload (including a
// complete tar archive shorter than advertised) or a checksum mismatch
// leaves nothing at the final path and no part behind, and the
// reservation stands for another landing.
func TestPartLifecycle(t *testing.T) {
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "member"), []byte("tree bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	tree, err := tardir.Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	file := []byte("verified bytes")
	sum := func(b []byte) string { d := md5.Sum(b); return hex.EncodeToString(d[:]) }
	for _, tc := range []struct {
		name    string
		size    int64
		dir     bool
		sum     string
		payload []byte
		want    string // error substring; empty for a landing that commits
		commit  int64
	}{
		{name: "file", size: 14, payload: file, commit: 14},
		{name: "file-checked", size: 14, sum: sum(file), payload: file, commit: 14},
		{name: "file-unknown-size", size: -1, payload: file, commit: 14},
		{name: "tree", size: int64(len(tree)), dir: true, sum: sum(tree), payload: tree, commit: 10},
		{name: "file-short", size: 20, payload: file, want: "got 14 of 20 bytes"},
		{name: "tree-short", size: int64(len(tree)) + 512, dir: true, payload: tree, want: "of"},
		{name: "file-corrupt", size: 14, sum: sum([]byte("damaged bytes!")), payload: file, want: "checksum mismatch"},
		{name: "tree-corrupt", size: int64(len(tree)), dir: true, sum: sum(file), payload: tree, want: "checksum mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCache(t, 1<<20)
			if _, err := c.Reserve(tc.name, tc.size, LifetimeWorkflow); err != nil {
				t.Fatal(err)
			}
			err := c.Land(tc.name, tc.size, tc.dir, tc.sum, bytes.NewReader(tc.payload))
			ents, _ := os.ReadDir(c.Dir())
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), partPrefix) {
					t.Fatalf("part %s left behind", e.Name())
				}
			}
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("land = %v, want an error containing %q", err, tc.want)
				}
				if _, err := os.Lstat(c.Path(tc.name)); !os.IsNotExist(err) {
					t.Fatalf("failed landing left the final path (lstat err=%v)", err)
				}
				if e, _ := c.Lookup(tc.name); e.State != StatePending {
					t.Fatalf("failed landing moved the reservation to %v", e.State)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if size, err := c.Commit(tc.name); err != nil || size != tc.commit {
				t.Fatalf("commit = %d, %v; want %d", size, err, tc.commit)
			}
			if tc.dir {
				if b, err := os.ReadFile(filepath.Join(c.Path(tc.name), "member")); err != nil || string(b) != "tree bytes" {
					t.Fatalf("landed tree member = %q, %v", b, err)
				}
				return
			}
			r, n, err := c.Open(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			b, _ := io.ReadAll(r)
			if n != 14 || !bytes.Equal(b, file) {
				t.Fatalf("landed object = %q (%d bytes)", b, n)
			}
		})
	}
}
