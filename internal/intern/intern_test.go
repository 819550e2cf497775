package intern

import (
	"fmt"
	"testing"
)

func TestInternAssignsDenseHandlesInFirstSeenOrder(t *testing.T) {
	var tab Table[int32]
	if tab.Name(0) != "" || tab.Name(7) != "" {
		t.Fatal("unassigned handles name something")
	}
	if _, ok := tab.Lookup("w2"); ok {
		t.Fatal("Lookup assigned a handle")
	}
	for i, name := range []string{"w2", "w10", "w1"} {
		if h := tab.Intern(name); h != int32(i+1) {
			t.Fatalf("Intern(%s) = %d, want %d", name, h, i+1)
		}
	}
	if h := tab.Intern("w10"); h != 2 {
		t.Fatalf("re-interning w10 gave %d, want its first handle 2", h)
	}
	if h, ok := tab.Lookup("w1"); !ok || h != 3 || tab.Name(h) != "w1" {
		t.Fatalf("Lookup(w1) = %d, %v", h, ok)
	}
}

// TestInternMatchesMap interns many names through growth, with and without
// a reservation, and checks every handle against a map.
func TestInternMatchesMap(t *testing.T) {
	for _, reserve := range []int{0, 100, 5000} {
		var tab Table[int32]
		tab.Reserve(reserve)
		want := map[string]int32{}
		for i := 0; i < 3000; i++ {
			name := fmt.Sprintf("f%d", i%2000)
			h := tab.Intern(name)
			if w, ok := want[name]; ok && w != h {
				t.Fatalf("reserve %d: %s re-interned as %d, first %d", reserve, name, h, w)
			}
			want[name] = h
		}
		for name, h := range want {
			if got, ok := tab.Lookup(name); !ok || got != h || tab.Name(h) != name {
				t.Fatalf("reserve %d: Lookup(%s) = %d, %v; want %d", reserve, name, got, ok, h)
			}
		}
		if _, ok := tab.Lookup("absent"); ok {
			t.Fatal("Lookup found a name never interned")
		}
	}
}
