package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// tables returns fresh tables over fresh names, with fh and wh interning
// the readable IDs the tests are written in.
func tables() (names *Names, fh func(string) FileH, wh func(string) WorkerH) {
	names = NewNames()
	return names, names.Files.Intern, names.Workers.Intern
}

func TestReplicaLifecycle(t *testing.T) {
	names, fh, wh := tables()
	tab := NewTable(names)
	tab.Add(fh("url-db"), wh("w1"), Pending)
	if tab.Has(fh("url-db"), wh("w1")) {
		t.Fatal("pending replica reported ready")
	}
	if !tab.HasAny(fh("url-db"), wh("w1")) {
		t.Fatal("pending replica invisible")
	}
	tab.Commit(fh("url-db"), wh("w1"))
	if !tab.Has(fh("url-db"), wh("w1")) {
		t.Fatal("committed replica not ready")
	}
	tab.Remove(fh("url-db"), wh("w1"))
	if tab.HasAny(fh("url-db"), wh("w1")) {
		t.Fatal("removed replica still visible")
	}
}

func TestLocateAndCount(t *testing.T) {
	names, fh, wh := tables()
	tab := NewTable(names)
	tab.Add(fh("f"), wh("w2"), Ready)
	tab.Add(fh("f"), wh("w1"), Ready)
	tab.Add(fh("f"), wh("w3"), Pending)
	locs := tab.Locate(fh("f"))
	if len(locs) != 2 || !sameSet(locs, wh("w1"), wh("w2")) {
		t.Fatalf("Locate = %v", locs)
	}
	if tab.CountReplicas(fh("f")) != 2 {
		t.Fatalf("CountReplicas = %d", tab.CountReplicas(fh("f")))
	}
	if got := tab.Locate(fh("unknown")); len(got) != 0 {
		t.Fatalf("Locate(unknown) = %v", got)
	}
}

func sameSet[H comparable](got []H, want ...H) bool {
	if len(got) != len(want) {
		return false
	}
	set := map[H]bool{}
	for _, h := range got {
		set[h] = true
	}
	for _, h := range want {
		if !set[h] {
			return false
		}
	}
	return true
}

func TestCommitUnknownReplicaAdopts(t *testing.T) {
	// Workers may report objects the manager never directed (persistent
	// cache from a previous workflow).
	names, fh, wh := tables()
	tab := NewTable(names)
	tab.Commit(fh("file-cached"), wh("w1"))
	if !tab.Has(fh("file-cached"), wh("w1")) {
		t.Fatal("adopted replica not recorded")
	}
}

func TestDropWorker(t *testing.T) {
	names, fh, wh := tables()
	tab := NewTable(names)
	tab.Add(fh("a"), wh("w1"), Ready)
	tab.Add(fh("b"), wh("w1"), Ready)
	tab.Add(fh("a"), wh("w2"), Ready)
	affected := tab.DropWorker(wh("w1"))
	if !sameSet(affected, fh("a"), fh("b")) {
		t.Fatalf("affected = %v", affected)
	}
	if tab.CountReplicas(fh("a")) != 1 {
		t.Fatal("w2's replica of a lost")
	}
	if tab.CountReplicas(fh("b")) != 0 {
		t.Fatal("b still has replicas")
	}
	if tab.HasAny(fh("a"), wh("w1")) || tab.ReadyFilesOn(wh("w1")) != 0 {
		t.Fatal("w1 still holds files")
	}
}

// TestFilesOn: the files recorded at a worker, ready and pending, show in
// its snapshot rows, and only the ready ones in its count.
func TestFilesOn(t *testing.T) {
	names, fh, wh := tables()
	tab := NewTable(names)
	tab.Add(fh("a"), wh("w1"), Ready)
	tab.Add(fh("b"), wh("w1"), Pending)
	want := []FileReplicas{{File: "a", Ready: []string{"w1"}}, {File: "b", Pending: []string{"w1"}}}
	if got := tab.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot = %+v", got)
	}
	if tab.ReadyFilesOn(wh("w1")) != 1 {
		t.Fatalf("ReadyFilesOn = %d", tab.ReadyFilesOn(wh("w1")))
	}
}

func TestTransferTableCounts(t *testing.T) {
	names, fh, wh := tables()
	tr := NewTransfers(names)
	src := WorkerSource(wh("w1"))
	t1 := tr.Start(fh("f"), src, wh("w2"))
	t2 := tr.Start(fh("f"), src, wh("w3"))
	if tr.InFlightFrom(src) != 2 {
		t.Fatalf("InFlightFrom = %d", tr.InFlightFrom(src))
	}
	if tr.InFlightTo(wh("w2")) != 1 {
		t.Fatalf("InFlightTo = %d", tr.InFlightTo(wh("w2")))
	}
	if !tr.Pending(fh("f"), wh("w2")) {
		t.Fatal("pending transfer invisible")
	}
	if tr.Pending(fh("f"), wh("w9")) {
		t.Fatal("phantom pending transfer")
	}
	got, ok := tr.Complete(t1.ID)
	if !ok || got.Dest != wh("w2") {
		t.Fatalf("Complete = %+v ok=%v", got, ok)
	}
	if tr.InFlightFrom(src) != 1 {
		t.Fatal("source count not decremented")
	}
	if _, ok := tr.Complete(t1.ID); ok {
		t.Fatal("double complete succeeded")
	}
	// t1's slot is reused; its stale ID must not complete the new transfer.
	t3 := tr.Start(fh("g"), src, wh("w4"))
	if _, ok := tr.Complete(t1.ID); ok || tr.Len() != 2 {
		t.Fatalf("stale ID completed the slot's next transfer (Len %d)", tr.Len())
	}
	tr.Complete(t2.ID)
	tr.Complete(t3.ID)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTransfersDropWorker(t *testing.T) {
	names, fh, wh := tables()
	tr := NewTransfers(names)
	wsrc := WorkerSource(wh("w1"))
	usrc := names.FixedSource(SourceURL, "http://x")
	tr.Start(fh("a"), wsrc, wh("w2")) // from the departing worker
	tr.Start(fh("b"), usrc, wh("w1")) // to the departing worker
	tr.Start(fh("c"), usrc, wh("w3")) // unrelated
	cancelled := tr.DropWorker(wh("w1"))
	if len(cancelled) != 2 {
		t.Fatalf("cancelled = %+v", cancelled)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.InFlightFrom(usrc) != 1 {
		t.Fatalf("InFlightFrom(url) = %d", tr.InFlightFrom(usrc))
	}
}

func TestSourceKindString(t *testing.T) {
	if SourceURL.String() != "url" || SourceWorker.String() != "worker" || SourceManager.String() != "manager" {
		t.Fatal("source kind strings wrong")
	}
}

// Property: for any sequence of Start/Complete, per-source counts equal the
// number of in-flight transfers from that source.
func TestQuickTransferAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		names, fh, wh := tables()
		tr := NewTransfers(names)
		var live []Transfer
		counts := map[Source]int{}
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				name := string(rune('a' + op%5))
				src := names.FixedSource(SourceKind(op%3), name)
				if SourceKind(op%3) == SourceWorker {
					src = WorkerSource(wh(name))
				}
				x := tr.Start(fh("f"), src, wh("w"+string(rune('0'+op%4))))
				live = append(live, x)
				counts[src]++
			} else {
				x := live[0]
				live = live[1:]
				tr.Complete(x.ID)
				counts[x.Source]--
			}
			for src, want := range counts {
				if tr.InFlightFrom(src) != want {
					return false
				}
			}
			if tr.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: replica table byFile and byWorker indices stay consistent.
func TestQuickReplicaIndexConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		names, fh, wh := tables()
		tab := NewTable(names)
		type key struct{ f, w string }
		ref := map[key]bool{}
		for _, op := range ops {
			file := "f" + string(rune('0'+op%4))
			worker := "w" + string(rune('0'+(op>>2)%4))
			switch op % 3 {
			case 0:
				tab.Add(fh(file), wh(worker), Ready)
				ref[key{file, worker}] = true
			case 1:
				tab.Remove(fh(file), wh(worker))
				delete(ref, key{file, worker})
			case 2:
				tab.DropWorker(wh(worker))
				for k := range ref {
					if k.w == worker {
						delete(ref, k)
					}
				}
			}
		}
		for k, present := range ref {
			if present != tab.HasAny(fh(k.f), wh(k.w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// model is the naive name-keyed reference the dense tables must agree
// with: replicas[file][worker] is a state; transfers are kept in a list.
type model struct {
	replicas  map[string]map[string]ReplicaState
	transfers []modelTransfer
}

type modelTransfer struct {
	id        TransferID
	file, dst string
	src       string // "worker:<id>" or the fixed source's name
}

// TestDenseTablesMatchNaiveModel drives seeded random sequences of every
// mutation through Table and Transfers and, after each step, checks every
// query against a string-map model. The sequences include commits of
// names nothing declared (first seen in the commit) and workers that drop
// out and come back under the same ID, which keep their handle.
func TestDenseTablesMatchNaiveModel(t *testing.T) {
	const steps = 400
	files := []string{"a", "b", "c", "d", "e", "f"}
	workers := []string{"w1", "w2", "w10", "w3"}
	fixed := []string{"manager", "http://x/1", "fs:/y"}
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		names := NewNames()
		tab, trs := NewTable(names), NewTransfers(names)
		m := model{replicas: map[string]map[string]ReplicaState{}}
		pick := func(s []string) string { return s[r.Intn(len(s))] }
		for step := 0; step < steps; step++ {
			var op string
			switch r.Intn(8) {
			case 0, 1:
				f, w := pick(files), pick(workers)
				st := ReplicaState(r.Intn(2))
				op = fmt.Sprintf("Add(%s, %s, %d)", f, w, st)
				tab.Add(names.Files.Intern(f), names.Workers.Intern(w), st)
				m.add(f, w, st)
			case 2:
				// Sometimes a name nothing has seen yet.
				f, w := pick(files), pick(workers)
				if r.Intn(4) == 0 {
					f = fmt.Sprintf("adopted-%d", step)
				}
				op = fmt.Sprintf("Commit(%s, %s)", f, w)
				tab.Commit(names.Files.Intern(f), names.Workers.Intern(w))
				m.add(f, w, Ready)
			case 3:
				f, w := pick(files), pick(workers)
				op = fmt.Sprintf("Remove(%s, %s)", f, w)
				tab.Remove(names.Files.Intern(f), names.Workers.Intern(w))
				delete(m.replicas[f], w)
			case 4:
				w := pick(workers)
				op = fmt.Sprintf("DropWorker(%s)", w)
				got := namesOfFiles(names, tab.DropWorker(names.Workers.Intern(w)))
				want := m.dropWorker(w)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s: affected %v, want %v", seed, step, op, got, want)
				}
				gotTr := trs.DropWorker(names.Workers.Intern(w))
				wantTr := m.dropTransfers(w)
				if len(gotTr) != len(wantTr) {
					t.Fatalf("seed %d step %d %s: cancelled %d transfers, want %d", seed, step, op, len(gotTr), len(wantTr))
				}
			case 5, 6:
				f, dst := pick(files), pick(workers)
				var src Source
				var srcName string
				if r.Intn(2) == 0 {
					w := pick(workers)
					src, srcName = WorkerSource(names.Workers.Intern(w)), "worker:"+w
				} else {
					name := pick(fixed)
					src, srcName = names.FixedSource(SourceURL, name), name
				}
				op = fmt.Sprintf("Start(%s, %s, %s)", f, srcName, dst)
				tr := trs.Start(names.Files.Intern(f), src, names.Workers.Intern(dst))
				m.transfers = append(m.transfers, modelTransfer{tr.ID, f, dst, srcName})
			case 7:
				if len(m.transfers) == 0 {
					continue
				}
				i := r.Intn(len(m.transfers))
				x := m.transfers[i]
				op = fmt.Sprintf("Complete(%s -> %s)", x.file, x.dst)
				got, ok := trs.Complete(x.id)
				if !ok || names.Files.Name(got.File) != x.file || names.Workers.Name(got.Dest) != x.dst {
					t.Fatalf("seed %d step %d %s: got %+v ok=%v", seed, step, op, got, ok)
				}
				m.transfers = append(m.transfers[:i], m.transfers[i+1:]...)
				if _, ok := trs.Complete(x.id); ok {
					t.Fatalf("seed %d step %d %s: completed twice", seed, step, op)
				}
			}
			if err := m.check(names, tab, trs, files, workers, fixed); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
			}
		}
	}
}

func namesOfFiles(names *Names, hs []FileH) []string {
	out := []string{}
	for _, h := range hs {
		out = append(out, names.Files.Name(h))
	}
	sort.Strings(out)
	return out
}

func (m *model) add(f, w string, st ReplicaState) {
	if m.replicas[f] == nil {
		m.replicas[f] = map[string]ReplicaState{}
	}
	m.replicas[f][w] = st
}

func (m *model) dropWorker(w string) []string {
	out := []string{}
	for f, holders := range m.replicas {
		if _, ok := holders[w]; ok {
			delete(holders, w)
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

func (m *model) dropTransfers(w string) []modelTransfer {
	var cancelled, kept []modelTransfer
	for _, x := range m.transfers {
		if x.dst == w || x.src == "worker:"+w {
			cancelled = append(cancelled, x)
		} else {
			kept = append(kept, x)
		}
	}
	m.transfers = kept
	return cancelled
}

// check compares every query of both tables with the model.
func (m *model) check(names *Names, tab *Table, trs *Transfers, files, workers, fixed []string) error {
	for f, holders := range m.replicas {
		fh := names.Files.Intern(f)
		ready := []string{}
		for _, w := range workers {
			wh := names.Workers.Intern(w)
			st, ok := holders[w]
			gotSt, gotOK := tab.State(fh, wh)
			if tab.HasAny(fh, wh) != ok || tab.Has(fh, wh) != (ok && st == Ready) ||
				gotOK != ok || (ok && gotSt != st) {
				return fmt.Errorf("%s at %s: Has=%v HasAny=%v, model %v/%v", f, w, tab.Has(fh, wh), tab.HasAny(fh, wh), st, ok)
			}
			if ok && st == Ready {
				ready = append(ready, w)
			}
		}
		if tab.CountReplicas(fh) != len(ready) {
			return fmt.Errorf("CountReplicas(%s) = %d, want %d", f, tab.CountReplicas(fh), len(ready))
		}
		var located []string
		for _, w := range tab.Locate(fh) {
			located = append(located, names.Workers.Name(w))
		}
		sort.Strings(located)
		sort.Strings(ready)
		if len(located) != len(ready) || (len(ready) > 0 && !reflect.DeepEqual(located, ready)) {
			return fmt.Errorf("Locate(%s) = %v, want %v", f, located, ready)
		}
	}
	for _, w := range workers {
		n := 0
		for _, holders := range m.replicas {
			if st, ok := holders[w]; ok && st == Ready {
				n++
			}
		}
		if got := tab.ReadyFilesOn(names.Workers.Intern(w)); got != n {
			return fmt.Errorf("ReadyFilesOn(%s) = %d, want %d", w, got, n)
		}
	}
	var want []FileReplicas
	for f, holders := range m.replicas {
		if len(holders) == 0 {
			continue
		}
		fr := FileReplicas{File: f}
		for w, st := range holders {
			if st == Ready {
				fr.Ready = append(fr.Ready, w)
			} else {
				fr.Pending = append(fr.Pending, w)
			}
		}
		sort.Strings(fr.Ready)
		sort.Strings(fr.Pending)
		want = append(want, fr)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].File < want[j].File })
	if got := tab.Snapshot(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Snapshot = %+v, want %+v", got, want)
	}

	if trs.Len() != len(m.transfers) {
		return fmt.Errorf("Len = %d, want %d", trs.Len(), len(m.transfers))
	}
	count := func(keep func(modelTransfer) bool) int {
		n := 0
		for _, x := range m.transfers {
			if keep(x) {
				n++
			}
		}
		return n
	}
	for _, w := range workers {
		wh := names.Workers.Intern(w)
		if got, want := trs.InFlightTo(wh), count(func(x modelTransfer) bool { return x.dst == w }); got != want {
			return fmt.Errorf("InFlightTo(%s) = %d, want %d", w, got, want)
		}
		if got, want := trs.InFlightFrom(WorkerSource(wh)), count(func(x modelTransfer) bool { return x.src == "worker:"+w }); got != want {
			return fmt.Errorf("InFlightFrom(worker %s) = %d, want %d", w, got, want)
		}
		for _, f := range files {
			if got, want := trs.Pending(names.Files.Intern(f), wh), count(func(x modelTransfer) bool { return x.file == f && x.dst == w }) > 0; got != want {
				return fmt.Errorf("Pending(%s, %s) = %v, want %v", f, w, got, want)
			}
		}
	}
	for _, name := range fixed {
		src := names.FixedSource(SourceURL, name)
		if got, want := trs.InFlightFrom(src), count(func(x modelTransfer) bool { return x.src == name }); got != want {
			return fmt.Errorf("InFlightFrom(%s) = %d, want %d", name, got, want)
		}
	}
	for _, f := range files {
		if got, want := trs.InFlightOf(names.Files.Intern(f)), count(func(x modelTransfer) bool { return x.file == f }); got != want {
			return fmt.Errorf("InFlightOf(%s) = %d, want %d", f, got, want)
		}
	}
	all := trs.All()
	if len(all) != len(m.transfers) {
		return fmt.Errorf("All has %d transfers, want %d", len(all), len(m.transfers))
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		ka := names.Files.Name(a.File) + "\x00" + names.Workers.Name(a.Dest)
		kb := names.Files.Name(b.File) + "\x00" + names.Workers.Name(b.Dest)
		if ka > kb || (ka == kb && a.ID > b.ID) {
			return fmt.Errorf("All out of (file, dest, ID) order at %d", i)
		}
	}
	return nil
}
