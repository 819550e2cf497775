package cache

import (
	"cmp"
	"slices"
	"strings"
)

// Policy is worker storage policy (§2.1): it accounts the bytes of resident
// objects against a capacity and chooses which objects to evict when an
// object must be admitted. It does no I/O, takes no locks and reads no
// clock: its owner supplies last-use stamps in float64 seconds on its own
// clock, and removes the victims it is handed. The worker's Cache wraps it
// with files, states and the memory tier; the simulator wraps one per
// simulated worker disk, so both substrates evict by the same rule.
//
// The eviction order is cheapest lifetime first, least recently used
// within a lifetime, then name: the name makes the order total, so a
// victim list never depends on map order.
type Policy[K comparable] struct {
	capacity, used int64
	objs           map[K]object[K]
	// cands and victims are Victims' scratch; victims is what it returns.
	cands   []object[K]
	victims []K
}

// object is one resident object's storage state.
type object[K comparable] struct {
	key      K
	size     int64
	lastUse  float64
	name     string
	lifetime Lifetime
	// pins counts the tasks using the object; held marks an object that is
	// resident but must not be evicted whatever its pins, such as a pending
	// object whose bytes are still arriving. Neither is ever a victim.
	pins int32
	held bool
}

// byEviction is the one eviction order: negative when a goes first.
func byEviction[K comparable](a, b *object[K]) int {
	if c := cmp.Compare(a.lifetime, b.lifetime); c != 0 {
		return c
	}
	if c := cmp.Compare(a.lastUse, b.lastUse); c != 0 {
		return c
	}
	return strings.Compare(a.name, b.name)
}

// NewPolicy returns an empty policy over capacity bytes.
func NewPolicy[K comparable](capacity int64) *Policy[K] {
	return &Policy[K]{capacity: capacity, objs: make(map[K]object[K])}
}

// Capacity returns the byte capacity.
func (p *Policy[K]) Capacity() int64 { return p.capacity }

// Used returns the bytes of the resident objects.
func (p *Policy[K]) Used() int64 { return p.used }

// Has reports whether k is resident.
func (p *Policy[K]) Has(k K) bool {
	_, ok := p.objs[k]
	return ok
}

// Add makes k resident with size bytes, last used now, unless it is
// resident already, and reports whether it did; name breaks ties in the
// eviction order.
func (p *Policy[K]) Add(k K, name string, size int64, lifetime Lifetime, now float64, held bool) bool {
	if _, ok := p.objs[k]; ok {
		return false
	}
	p.objs[k] = object[K]{key: k, size: size, lastUse: now, name: name, lifetime: lifetime, held: held}
	p.used += size
	return true
}

// Remove forgets k and releases its bytes.
func (p *Policy[K]) Remove(k K) {
	if o, ok := p.objs[k]; ok {
		p.used -= o.size
		delete(p.objs, k)
	}
}

// Settle stops holding k and gives it size bytes, keeping its pins and
// last use.
func (p *Policy[K]) Settle(k K, size int64) {
	if o, ok := p.objs[k]; ok {
		p.used += size - o.size
		o.size, o.held = size, false
		p.objs[k] = o
	}
}

// Touch records a use of k at now.
func (p *Policy[K]) Touch(k K, now float64) {
	if o, ok := p.objs[k]; ok {
		o.lastUse = now
		p.objs[k] = o
	}
}

// Pin records a task's use of k at now and protects it from eviction
// until the matching Unpin.
func (p *Policy[K]) Pin(k K, now float64) {
	if o, ok := p.objs[k]; ok {
		o.pins++
		o.lastUse = now
		p.objs[k] = o
	}
}

// Unpin releases one pin of k and returns the pins left.
func (p *Policy[K]) Unpin(k K) int {
	o := p.objs[k]
	if o.pins > 0 {
		o.pins--
		p.objs[k] = o
	}
	return int(o.pins)
}

// Pinned reports whether a task is using k.
func (p *Policy[K]) Pinned(k K) bool { return p.objs[k].pins > 0 }

// Compare orders two resident objects by eviction: negative when a goes
// first.
func (p *Policy[K]) Compare(a, b K) int {
	oa, ob := p.objs[a], p.objs[b]
	return byEviction(&oa, &ob)
}

// Victims chooses what to evict so that need more bytes fit: the shortest
// prefix, in eviction order, of the objects neither pinned nor held whose
// removal makes room, or all of them when even that is not enough, which
// fits reports. The caller removes the victims. The slice is reused by the
// next call.
func (p *Policy[K]) Victims(need int64) (victims []K, fits bool) {
	if p.used+need <= p.capacity {
		return nil, true
	}
	cands := p.cands[:0]
	for _, o := range p.objs { // hotpath-ok: eviction scan, only when the disk is full
		if o.pins == 0 && !o.held {
			cands = append(cands, o)
		}
	}
	slices.SortFunc(cands, func(a, b object[K]) int { // hotpath-ok: eviction order, only when the disk is full
		return byEviction(&a, &b)
	})
	victims, free := p.victims[:0], p.used
	for _, c := range cands {
		if free+need <= p.capacity {
			break
		}
		victims = append(victims, c.key)
		free -= c.size
	}
	p.cands, p.victims = cands, victims
	return victims, free+need <= p.capacity
}
