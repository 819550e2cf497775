package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// modelObject is one object of the naive policy model.
type modelObject struct {
	name     string
	size     int64
	lifetime Lifetime
	lastUse  float64
	pins     int
	held     bool
}

// modelVictims is the eviction rule written out plainly: sort every object
// by (lifetime, last use, name), skip pinned and held ones, and take the
// shortest prefix after which need fits, or every candidate when none does.
func modelVictims(objs map[int32]*modelObject, used, capacity, need int64) ([]string, bool) {
	if used+need <= capacity {
		return nil, true
	}
	var all []*modelObject
	for _, o := range objs {
		all = append(all, o)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.lifetime != b.lifetime {
			return a.lifetime < b.lifetime
		}
		if a.lastUse != b.lastUse {
			return a.lastUse < b.lastUse
		}
		return a.name < b.name
	})
	var victims []string
	for _, o := range all {
		if used+need <= capacity {
			break
		}
		if o.pins > 0 || o.held {
			continue
		}
		victims = append(victims, o.name)
		used -= o.size
	}
	return victims, used+need <= capacity
}

// TestPolicyVictimsMatchNaiveModel drives a policy and the naive model
// through the same seeded mutations and compares every victim choice.
// Three lifetimes and three stamps force ties on both, so the name
// tie-break decides often; needs range past the capacity, so some cannot
// fit even after evicting every candidate.
func TestPolicyVictimsMatchNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 100
		p := NewPolicy[int32](capacity)
		model := map[int32]*modelObject{}
		var used int64
		var choices, full, unfit int
		for step := 0; step < 300; step++ {
			k := int32(rng.Intn(24))
			o, resident := model[k]
			now := float64(rng.Intn(3))
			switch op := rng.Intn(8); {
			case !resident || op == 0:
				if resident {
					used -= o.size
					p.Remove(k)
				}
				o = &modelObject{name: fmt.Sprintf("obj-%02d", k), size: int64(1 + rng.Intn(20)),
					lifetime: Lifetime(rng.Intn(3)), lastUse: now, held: rng.Intn(4) == 0}
				model[k] = o
				used += o.size
				if !p.Add(k, o.name, o.size, o.lifetime, o.lastUse, o.held) || p.Add(k, o.name, 1, 0, 0, false) {
					t.Fatalf("seed %d step %d: Add of a new key refused, or of a resident one accepted", seed, step)
				}
			case op == 1:
				p.Pin(k, now)
				o.pins++
				o.lastUse = now
			case op == 2:
				if left := p.Unpin(k); o.pins > 0 {
					o.pins--
					if left != o.pins {
						t.Fatalf("seed %d step %d: Unpin left %d pins, model %d", seed, step, left, o.pins)
					}
				}
			case op == 3:
				p.Touch(k, now)
				o.lastUse = now
			case op == 4:
				size := int64(1 + rng.Intn(20))
				used += size - o.size
				o.size, o.held = size, false
				p.Settle(k, size)
			default:
				need := int64(rng.Intn(capacity + 20))
				got, gotFits := p.Victims(need)
				names := make([]string, len(got))
				for i, v := range got {
					names[i] = model[v].name
				}
				want, wantFits := modelVictims(model, used, capacity, need)
				if !slices.Equal(names, want) || gotFits != wantFits {
					t.Fatalf("seed %d step %d: Victims(%d) = %v, %v; model %v, %v",
						seed, step, need, names, gotFits, want, wantFits)
				}
				choices++
				if len(got) > 0 {
					full++
				}
				if !gotFits {
					unfit++
				}
				for _, v := range got {
					used -= model[v].size
					delete(model, v)
					p.Remove(v)
				}
			}
			if p.Used() != used {
				t.Fatalf("seed %d step %d: used %d, model %d", seed, step, p.Used(), used)
			}
		}
		if choices == 0 || full == 0 || unfit == 0 {
			t.Fatalf("seed %d: %d choices, %d evicting, %d unfit: the sequence misses a case", seed, choices, full, unfit)
		}
	}
}

// TestCacheAndSimPolicyChooseAlike drives the worker's Cache and a bare
// policy keyed the way the simulator keys it through one sequence of
// inserts, pins, touches and admissions, and requires the same victims,
// in the same order, from both.
func TestCacheAndSimPolicyChooseAlike(t *testing.T) {
	c := newCache(t, 100)
	var now float64
	born := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return born.Add(time.Duration(now * float64(time.Second))) })
	p := NewPolicy[int32](100)
	ids := map[string]int32{}
	var names []string

	insert := func(name string, size int, lt Lifetime) (cacheEvicted, simEvicted []string) {
		t.Helper()
		if err := putReader(c, name, int64(size), lt, strings.NewReader(strings.Repeat("x", size))); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		victims, fits := p.Victims(int64(size))
		if !fits {
			t.Fatalf("policy cannot fit %s", name)
		}
		for _, v := range victims {
			simEvicted = append(simEvicted, names[v])
			p.Remove(v)
		}
		ids[name] = int32(len(names))
		names = append(names, name)
		p.Add(ids[name], name, int64(size), lt, now, false)
		return c.DrainEvicted(), simEvicted
	}
	pin := func(name string) {
		t.Helper()
		if err := c.Pin(name); err != nil {
			t.Fatal(err)
		}
		p.Pin(ids[name], now)
	}
	touch := func(name string) {
		t.Helper()
		r, _, err := c.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		p.Touch(ids[name], now)
	}
	unpin := func(name string) {
		c.Unpin(name)
		p.Unpin(ids[name])
	}

	check := func(step string, cacheEvicted, simEvicted []string, want string) {
		t.Helper()
		if fmt.Sprint(cacheEvicted) != want || fmt.Sprint(simEvicted) != want {
			t.Fatalf("%s: cache evicted %v, sim-style policy %v; want %s", step, cacheEvicted, simEvicted, want)
		}
	}
	for _, in := range []struct {
		name string
		size int
		lt   Lifetime
	}{{"pkg", 30, LifetimeWorker}, {"in-b", 20, LifetimeWorkflow}, {"in-a", 20, LifetimeWorkflow}, {"tmp", 20, LifetimeTask}} {
		ce, se := insert(in.name, in.size, in.lt)
		check("insert "+in.name, ce, se, "[]")
	}
	// Full: the task-lifetime temp goes first, then the workflow inputs,
	// stamped alike, in name order.
	ce, se := insert("in-c", 50, LifetimeWorkflow)
	check("insert in-c", ce, se, "[tmp in-a]")
	pin("in-c")
	now++
	touch("pkg")
	// in-c is pinned, so the workflow input goes, then the package.
	ce, se = insert("in-d", 40, LifetimeWorkflow)
	check("insert in-d", ce, se, "[in-b pkg]")
	unpin("in-c")
	now++
	touch("in-c")
	// Last use decides between two workflow inputs.
	ce, se = insert("in-e", 30, LifetimeWorkflow)
	check("insert in-e", ce, se, "[in-d]")
	if c.Used() != p.Used() {
		t.Fatalf("cache uses %d bytes, policy %d", c.Used(), p.Used())
	}
}
