// Package sched is a fixture: scheduling-engine code, whose decisions the
// simulator replays, leaking map iteration order into a decision.
package sched

// Wake queues every parked task for replanning in map order, so the order
// of the replan list differs from run to run.
func Wake(parked map[int]bool, replan []int) []int {
	for id := range parked { // want:simdeterminism "appends to replan without a later sort"
		replan = append(replan, id)
	}
	return replan
}
