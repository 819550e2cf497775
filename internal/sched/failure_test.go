package sched

import (
	"fmt"
	"testing"

	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/taskspec"
)

// Each failure rule on the stub substrate's virtual clock: transfer retry
// with backoff, abandonment, worker loss and lost-temp recovery.

// A failed transfer closes its placement for a backoff window. A start
// inside the window is refused without parking the task, which stays on
// the replan list; it starts once the window opens.
func TestBackoffWindowKeepsRefusedStartOnReplanList(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	in := s.url("in", "/in")
	w := s.worker("w0", 1)
	s.task(1, in)
	s.pass()
	s.fail(in, w)
	attempt, wait := s.e.TransferFailed(in, w)
	if attempt != 1 || wait < TransferBackoffBase*3/4 || wait > TransferBackoffBase*5/4 {
		t.Fatalf("first failure: attempt %d, wait %v; want 1 and about %v", attempt, wait, TransferBackoffBase)
	}
	opens := s.e.Retries()[Placement{in, w}].NotBefore
	for pass := 0; pass < 2; pass++ {
		s.now = opens / 2
		s.pass()
		if len(s.starts) != 1 || s.parked(1) || !s.e.Dirty() || s.e.Reopens() != opens {
			t.Fatalf("inside the window: starts %v, parked %v, dirty %v, reopens %v; want no new start, on the replan list, reopening at %v",
				s.starts, s.parked(1), s.e.Dirty(), s.e.Reopens(), opens)
		}
	}
	s.now = opens
	s.pass()
	if st := s.startsOf("in"); len(st) != 2 || st[1].pass != 4 || s.e.Reopens() != 0 {
		t.Fatalf("at the opening: starts %v, reopens %v; want the retry in pass 4 and nothing refused", st, s.e.Reopens())
	}
	s.land(in, w)
	s.e.TransferLanded(in, w)
	if len(s.e.Retries()) != 0 {
		t.Fatalf("retry table after the landing: %v, want empty", s.e.Retries())
	}
	s.pass()
	s.requireDispatched(1)
}

// Past the retry limit the placement is abandoned: only the staging tasks
// at its worker that wait on its file go back to the queue.
func TestAbandonedPlacementRequeuesOnlyItsWaitingTasks(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	a, b := s.url("a", "/a"), s.url("b", "/b")
	w0 := s.worker("w0", 2)
	w1 := s.worker("w1", 0)
	s.task(1, a)
	s.task(2, b)
	s.pass()
	s.setFree(w1, 1)
	s.task(3, a)
	s.pass()
	if s.tasks[3].Worker != w1 {
		t.Fatal("task 3 was not staged at w1")
	}
	for i := 1; i <= TransferRetryLimit; i++ {
		if _, wait := s.e.TransferFailed(a, w0); wait == 0 {
			t.Fatalf("failure %d abandoned the placement; the limit is %d", i, TransferRetryLimit)
		}
	}
	if _, wait := s.e.TransferFailed(a, w0); wait != 0 {
		t.Fatalf("failure %d was retried after %v; want the placement abandoned", TransferRetryLimit+1, wait)
	}
	if fmt.Sprint(s.requeued) != "[{1  }]" {
		t.Fatalf("requeued %v, want task 1 alone", s.requeued)
	}
	if s.tasks[1].State != taskspec.StateWaiting || s.tasks[2].State != taskspec.StateStaging ||
		s.tasks[3].State != taskspec.StateStaging {
		t.Fatalf("states %v %v %v; want waiting, staging, staging",
			s.tasks[1].State, s.tasks[2].State, s.tasks[3].State)
	}
	if _, ok := s.e.Retries()[Placement{a, w0}]; ok {
		t.Fatal("the abandoned placement kept its retry row")
	}
}

// A lost worker's tasks are requeued in ID order, whatever order the
// substrate lists them in, and its retry rows are forgotten.
func TestWorkerLostRequeuesInIDOrderAndForgetsRetries(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	x := s.url("x", "/x")
	w0 := s.worker("w0", 3)
	w1 := s.worker("w1", 0)
	s.view.Reps.Commit(x, w0)
	for id := 1; id <= 3; id++ {
		s.task(id, x)
	}
	s.pass()
	s.requireDispatched(1, 2, 3)
	s.e.TransferFailed(x, w0)
	s.e.TransferFailed(x, w1)
	s.leave(w0)
	if fmt.Sprint(s.requeued) != "[{1  } {2  } {3  }]" {
		t.Fatalf("requeued %v, want tasks 1, 2, 3 in order", s.requeued)
	}
	if _, ok := s.e.Retries()[Placement{x, w1}]; len(s.e.Retries()) != 1 || !ok {
		t.Fatalf("retry rows %v, want w1's alone", s.e.Retries())
	}
	if n := s.e.Count(taskspec.StateWaiting); n != 3 || len(s.e.Live()) != 1 {
		t.Fatalf("waiting %d, live %d; want 3 and 1", n, len(s.e.Live()))
	}
}

// A temp lost with its worker re-runs its done producer when a task still
// reads it, and not when none does or a transfer of it is in flight. A
// waiting consumer finding it lost re-runs the producer too.
func TestLostTempRerunsProducerOnlyWhenNeeded(t *testing.T) {
	for _, tc := range []struct {
		name     string
		consumer bool
		inFlight bool
		want     string
	}{
		{"consumer", true, false, "[{1 tmp w0}]"},
		{"no consumer", false, false, "[]"},
		{"in flight", true, true, "[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStub(t, policy.DefaultLimits())
			tmp := s.temp("tmp", 1)
			w0 := s.worker("w0", 1)
			w1 := s.worker("w1", 0)
			s.task(1)
			s.pass()
			s.e.SetState(1, s.tasks[1], taskspec.StateDone)
			s.view.Reps.Commit(tmp, w0)
			s.setFree(w0, 0)
			if tc.consumer {
				s.task(2, tmp)
			}
			if tc.inFlight {
				s.view.Trs.Start(tmp, replica.WorkerSource(s.worker("w2", 0)), w1)
			}
			s.leave(w0)
			if fmt.Sprint(s.requeued) != tc.want {
				t.Fatalf("requeued %v, want %v", s.requeued, tc.want)
			}
		})
	}
	t.Run("found by a waiting consumer", func(t *testing.T) {
		s := newStub(t, policy.DefaultLimits())
		tmp := s.temp("tmp", 1)
		w0 := s.worker("w0", 1)
		s.task(1)
		s.pass()
		s.e.SetState(1, s.tasks[1], taskspec.StateDone)
		s.task(2, tmp)
		s.setFree(w0, 1)
		s.pass()
		if fmt.Sprint(s.requeued) != "[{1 tmp }]" || s.tasks[2].State != taskspec.StateWaiting {
			t.Fatalf("requeued %v, task 2 %v; want the producer re-run, the consumer waiting",
				s.requeued, s.tasks[2].State)
		}
	})
}
