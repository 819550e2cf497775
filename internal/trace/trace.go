// Package trace records execution events and aggregates them into the
// task-view and worker-view timelines used throughout the paper's
// evaluation (Figures 9–13).
//
// Every run — real or simulated — appends Events to a Log. Aggregators then
// derive per-task execution intervals (the "task view": each row shows the
// interval in which a task executed) and per-worker activity timelines (the
// "worker view": running / transferring / idle), plus scalar summaries such
// as makespan and bytes moved per source kind.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind enumerates event types.
type Kind int

const (
	// WorkerJoined and WorkerLeft bracket a worker's availability.
	WorkerJoined Kind = iota
	WorkerLeft
	// TransferStart and TransferEnd bracket one object movement to a
	// worker. Detail holds the source description.
	TransferStart
	TransferEnd
	// TransferFailed reports an unsuccessful movement.
	TransferFailed
	// StageStart and StageEnd bracket on-worker materialization work
	// (MiniTask execution such as unpacking an environment).
	StageStart
	StageEnd
	// TaskStart and TaskEnd bracket task execution at a worker.
	TaskStart
	TaskEnd
	// TaskFailed reports an unsuccessful execution.
	TaskFailed
	// LibraryReady marks a library instance becoming available at a worker.
	LibraryReady
	// FileEvicted marks cache eviction.
	FileEvicted
	// TransferRetry marks a supervised transfer being re-issued with
	// backoff after a failure (distinct from task retries).
	TransferRetry
	// ReplicaLost marks a file falling below its requested replica count
	// when a holder departed; Detail carries "<have>/<goal>".
	ReplicaLost
	// RecoveryStart marks the re-submission of a completed producer task to
	// regenerate a lost temp file (§2.2 recovery re-execution).
	RecoveryStart
)

// String returns a readable name for the kind.
func (k Kind) String() string {
	names := [...]string{
		"worker-joined", "worker-left", "transfer-start", "transfer-end",
		"transfer-failed", "stage-start", "stage-end", "task-start",
		"task-end", "task-failed", "library-ready", "file-evicted",
		"transfer-retry", "replica-lost", "recovery-start",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timestamped occurrence. Time is seconds from the start of
// the run (virtual seconds in simulation, wall-clock seconds in real runs).
type Event struct {
	Time   float64
	Kind   Kind
	Worker string
	TaskID int
	File   string
	// Bytes is the size moved (transfers) or produced (task end).
	Bytes int64
	// Source describes where transferred bytes came from: "url", "manager",
	// "worker:<id>", or "shared-fs".
	Source string
	// Detail carries free-form context (error text, category).
	Detail string
}

// AllKinds returns every defined Kind in declaration order, discovered by
// probing String() until it falls back to the numeric form. Consumers that
// must stay exhaustive over kinds (CSV parsing, the metrics bridge parity
// test) iterate this instead of hard-coding the last constant, so a newly
// added kind can never be silently skipped.
func AllKinds() []Kind {
	var out []Kind
	for k := Kind(0); ; k++ {
		if k.String() == fmt.Sprintf("kind(%d)", int(k)) {
			return out
		}
		out = append(out, k)
	}
}

// Log is an append-only event collection, safe for concurrent use.
type Log struct {
	mu sync.Mutex
	// chunks holds the events in arrival order, logChunk to a chunk (the
	// last may be short). Each chunk is allocated whole, so a long run's
	// log grows a chunk at a time and never re-copies an event.
	chunks    [][]Event     // guarded by mu
	n         int           // guarded by mu; total events
	observers []func(Event) // guarded by mu; appended-only, called outside mu
}

// logChunk is the number of events per chunk.
const logChunk = 1024

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Observe registers a callback invoked for every subsequently added event.
// Callbacks run synchronously on the adding goroutine, outside the log's
// lock, so they may not call back into the log. The metrics bridge uses this
// to keep live counters in lockstep with the post-hoc event log.
func (l *Log) Observe(fn func(Event)) {
	l.mu.Lock()
	l.observers = append(l.observers, fn)
	l.mu.Unlock()
}

// Add appends an event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	if k := len(l.chunks); k == 0 || len(l.chunks[k-1]) == logChunk {
		l.chunks = append(l.chunks, make([]Event, 0, logChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], e)
	l.n++
	obs := l.observers
	l.mu.Unlock()
	for _, fn := range obs {
		fn(e)
	}
}

// Events returns a time-sorted copy of all events.
func (l *Log) Events() []Event {
	l.mu.Lock()
	out := make([]Event, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// TaskInterval is one row of the task view: when a task started and
// finished executing, and on which worker.
type TaskInterval struct {
	TaskID   int
	Worker   string
	Start    float64
	End      float64
	Failed   bool
	Category string
}

// TaskView derives execution intervals, sorted by start time (the paper's
// task graphs sort rows by start time). Unfinished tasks get End = the max
// event time observed.
func TaskView(events []Event) []TaskInterval {
	starts := map[int]Event{}
	var out []TaskInterval
	var tmax float64
	for _, e := range events {
		if e.Time > tmax {
			tmax = e.Time
		}
		switch e.Kind {
		case TaskStart:
			starts[e.TaskID] = e
		case TaskEnd, TaskFailed:
			if s, ok := starts[e.TaskID]; ok {
				out = append(out, TaskInterval{
					TaskID:   e.TaskID,
					Worker:   s.Worker,
					Start:    s.Time,
					End:      e.Time,
					Failed:   e.Kind == TaskFailed,
					Category: s.Detail,
				})
				delete(starts, e.TaskID)
			}
		}
	}
	for id, s := range starts {
		out = append(out, TaskInterval{TaskID: id, Worker: s.Worker, Start: s.Time, End: tmax, Category: s.Detail})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].TaskID < out[j].TaskID
	})
	return out
}

// WorkerState is a coarse activity classification matching the paper's
// worker-view colors: dark blue = running, orange = transferring data,
// light gray = idle.
type WorkerState int

const (
	Idle WorkerState = iota
	Transferring
	Running
)

// String returns a readable name for the state.
func (s WorkerState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Transferring:
		return "transfer"
	case Running:
		return "running"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Span is one segment of a worker's activity timeline.
type Span struct {
	Start, End float64
	State      WorkerState
}

// WorkerView derives each worker's activity timeline between its join and
// leave times. Running takes precedence over Transferring when both are
// active (a busy worker is "dark blue" even while a background transfer
// proceeds). Staging counts as transfer activity, matching the paper's
// classification of unpack time as startup overhead.
func WorkerView(events []Event) map[string][]Span {
	type counters struct {
		running, moving int
		joined          bool
		last            float64
		state           WorkerState
		spans           []Span
	}
	ws := map[string]*counters{}
	var tmax float64
	get := func(id string) *counters {
		c, ok := ws[id]
		if !ok {
			c = &counters{}
			ws[id] = c
		}
		return c
	}
	classify := func(c *counters) WorkerState {
		switch {
		case c.running > 0:
			return Running
		case c.moving > 0:
			return Transferring
		default:
			return Idle
		}
	}
	advance := func(c *counters, now float64) {
		if now > c.last {
			c.spans = append(c.spans, Span{Start: c.last, End: now, State: c.state})
			c.last = now
		}
	}
	for _, e := range events {
		if e.Time > tmax {
			tmax = e.Time
		}
		if e.Worker == "" {
			continue
		}
		c := get(e.Worker)
		if !c.joined {
			c.joined = true
			c.last = e.Time
		}
		advance(c, e.Time)
		switch e.Kind {
		case TaskStart:
			c.running++
		case TaskEnd, TaskFailed:
			if c.running > 0 {
				c.running--
			}
		case TransferStart, StageStart:
			c.moving++
		case TransferEnd, TransferFailed, StageEnd:
			if c.moving > 0 {
				c.moving--
			}
		}
		c.state = classify(c)
	}
	out := map[string][]Span{}
	for id, c := range ws {
		advance(c, tmax)
		out[id] = mergeSpans(c.spans)
	}
	return out
}

func mergeSpans(spans []Span) []Span {
	var out []Span
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		if n := len(out); n > 0 && out[n-1].State == s.State && out[n-1].End == s.Start {
			out[n-1].End = s.End
			continue
		}
		out = append(out, s)
	}
	return out
}

// Summary condenses a run into the scalar quantities quoted in the paper.
type Summary struct {
	Makespan      float64
	TasksDone     int
	TasksFailed   int
	Workers       int
	BytesBySource map[string]int64
	// TransfersBySource counts completed transfers per source kind, the
	// quantity behind "108 -> 3 shared-FS fetches".
	TransfersBySource map[string]int64
	// TransferTime and StageTime and RunTime sum worker-seconds spent in
	// each activity (the areas of the worker-view colors).
	TransferTime float64
	StageTime    float64
	RunTime      float64
}

// Summarize computes a run summary from its events.
func Summarize(events []Event) Summary {
	s := Summary{
		BytesBySource:     map[string]int64{},
		TransfersBySource: map[string]int64{},
	}
	workers := map[string]bool{}
	openTransfers := map[string]float64{} // key worker/file
	openStages := map[string]float64{}
	openTasks := map[int]float64{}
	for _, e := range events {
		if e.Time > s.Makespan {
			s.Makespan = e.Time
		}
		if e.Worker != "" {
			workers[e.Worker] = true
		}
		key := e.Worker + "/" + e.File
		switch e.Kind {
		case TransferStart:
			openTransfers[key] = e.Time
		case TransferEnd:
			s.BytesBySource[e.Source] += e.Bytes
			s.TransfersBySource[e.Source]++
			if t0, ok := openTransfers[key]; ok {
				s.TransferTime += e.Time - t0
				delete(openTransfers, key)
			}
		case TransferFailed:
			delete(openTransfers, key)
		case StageStart:
			openStages[key] = e.Time
		case StageEnd:
			if t0, ok := openStages[key]; ok {
				s.StageTime += e.Time - t0
				delete(openStages, key)
			}
		case TaskStart:
			openTasks[e.TaskID] = e.Time
		case TaskEnd:
			s.TasksDone++
			if t0, ok := openTasks[e.TaskID]; ok {
				s.RunTime += e.Time - t0
				delete(openTasks, e.TaskID)
			}
		case TaskFailed:
			s.TasksFailed++
			delete(openTasks, e.TaskID)
		}
	}
	s.Workers = len(workers)
	return s
}

// CompletionSeries returns (time, cumulative tasks completed) points — the
// growth curves of Figures 12 and 13.
func CompletionSeries(events []Event) (times []float64, counts []int) {
	n := 0
	for _, e := range events {
		if e.Kind == TaskEnd {
			n++
			times = append(times, e.Time)
			counts = append(counts, n)
		}
	}
	return times, counts
}

// WriteCSV renders events as CSV for external plotting.
func WriteCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "time,kind,worker,task,file,bytes,source,detail"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%.3f,%s,%s,%d,%s,%d,%s,%s\n",
			e.Time, e.Kind, e.Worker, e.TaskID, e.File, e.Bytes, e.Source, e.Detail); err != nil {
			return err
		}
	}
	return nil
}

// StateFractions reduces a worker view to the fraction of total
// worker-seconds in each state — a compact way to compare cold/hot cache
// runs (Figure 9).
func StateFractions(view map[string][]Span) map[WorkerState]float64 {
	totals := map[WorkerState]float64{}
	var sum float64
	for _, spans := range view {
		for _, s := range spans {
			d := s.End - s.Start
			totals[s.State] += d
			sum += d
		}
	}
	if sum > 0 {
		for k := range totals {
			totals[k] /= sum
		}
	}
	return totals
}
