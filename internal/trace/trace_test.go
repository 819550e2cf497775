package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTaskView(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: TaskStart, TaskID: 2, Worker: "w1", Detail: "process"},
		{Time: 0.5, Kind: TaskStart, TaskID: 1, Worker: "w2"},
		{Time: 2, Kind: TaskEnd, TaskID: 1},
		{Time: 3, Kind: TaskFailed, TaskID: 2},
		{Time: 4, Kind: TaskStart, TaskID: 3, Worker: "w1"},
	}
	view := TaskView(events)
	if len(view) != 3 {
		t.Fatalf("rows = %d", len(view))
	}
	// Sorted by start time.
	if view[0].TaskID != 1 || view[1].TaskID != 2 || view[2].TaskID != 3 {
		t.Fatalf("order = %v", view)
	}
	if view[0].End != 2 || view[0].Worker != "w2" {
		t.Fatalf("row 0 = %+v", view[0])
	}
	if !view[1].Failed || view[1].Category != "process" {
		t.Fatalf("row 1 = %+v", view[1])
	}
	// Unfinished task runs to the max observed time.
	if view[2].End != 4 {
		t.Fatalf("row 2 = %+v", view[2])
	}
}

func TestWorkerViewStates(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: WorkerJoined, Worker: "w1"},
		{Time: 1, Kind: TransferStart, Worker: "w1", File: "f"},
		{Time: 3, Kind: TransferEnd, Worker: "w1", File: "f", Bytes: 100, Source: "url"},
		{Time: 3, Kind: TaskStart, Worker: "w1", TaskID: 1},
		{Time: 7, Kind: TaskEnd, Worker: "w1", TaskID: 1},
		{Time: 9, Kind: WorkerLeft, Worker: "w1"},
	}
	view := WorkerView(events)
	spans := view["w1"]
	want := []Span{
		{0, 1, Idle},
		{1, 3, Transferring},
		{3, 7, Running},
		{7, 9, Idle},
	}
	if len(spans) != len(want) {
		t.Fatalf("spans = %+v", spans)
	}
	for i, s := range spans {
		if s != want[i] {
			t.Errorf("span %d = %+v want %+v", i, s, want[i])
		}
	}
}

func TestWorkerViewRunningDominatesTransfer(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: TaskStart, Worker: "w1", TaskID: 1},
		{Time: 1, Kind: TransferStart, Worker: "w1", File: "f"},
		{Time: 2, Kind: TransferEnd, Worker: "w1", File: "f"},
		{Time: 3, Kind: TaskEnd, Worker: "w1", TaskID: 1},
	}
	spans := WorkerView(events)["w1"]
	if len(spans) != 1 || spans[0].State != Running {
		t.Fatalf("spans = %+v; running must dominate transfer", spans)
	}
}

func TestWorkerViewStagingIsTransfer(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: StageStart, Worker: "w1", File: "env"},
		{Time: 5, Kind: StageEnd, Worker: "w1", File: "env"},
		{Time: 6, Kind: TaskStart, Worker: "w1", TaskID: 1},
		{Time: 7, Kind: TaskEnd, Worker: "w1", TaskID: 1},
	}
	spans := WorkerView(events)["w1"]
	if spans[0].State != Transferring || spans[0].End != 5 {
		t.Fatalf("staging not classified as transfer: %+v", spans)
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Time: 0, Kind: WorkerJoined, Worker: "w1"},
		{Time: 0, Kind: WorkerJoined, Worker: "w2"},
		{Time: 1, Kind: TransferStart, Worker: "w1", File: "db"},
		{Time: 4, Kind: TransferEnd, Worker: "w1", File: "db", Bytes: 200, Source: "url"},
		{Time: 4, Kind: TransferStart, Worker: "w2", File: "db"},
		{Time: 6, Kind: TransferEnd, Worker: "w2", File: "db", Bytes: 200, Source: "worker:w1"},
		{Time: 6, Kind: TaskStart, Worker: "w1", TaskID: 1},
		{Time: 9, Kind: TaskEnd, Worker: "w1", TaskID: 1},
		{Time: 6, Kind: TaskStart, Worker: "w2", TaskID: 2},
		{Time: 8, Kind: TaskFailed, Worker: "w2", TaskID: 2},
	}
	s := Summarize(events)
	if s.Makespan != 9 || s.TasksDone != 1 || s.TasksFailed != 1 || s.Workers != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.BytesBySource["url"] != 200 || s.BytesBySource["worker:w1"] != 200 {
		t.Fatalf("bytes = %+v", s.BytesBySource)
	}
	if s.TransfersBySource["url"] != 1 {
		t.Fatalf("transfers = %+v", s.TransfersBySource)
	}
	if s.TransferTime != 5 || s.RunTime != 3 {
		t.Fatalf("times: transfer=%v run=%v", s.TransferTime, s.RunTime)
	}
}

func TestCompletionSeries(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: TaskEnd, TaskID: 1},
		{Time: 2, Kind: TaskEnd, TaskID: 2},
		{Time: 5, Kind: TaskEnd, TaskID: 3},
	}
	times, counts := CompletionSeries(events)
	if len(times) != 3 || counts[2] != 3 || times[2] != 5 {
		t.Fatalf("series = %v %v", times, counts)
	}
}

func TestLogConcurrentAndSorted(t *testing.T) {
	// Enough events to fill several chunks of the log.
	const per = 3000
	l := NewLog()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				l.Add(Event{Time: float64(per - i), Kind: TaskEnd, TaskID: g*per + i})
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if l.Len() != 4*per {
		t.Fatalf("len = %d", l.Len())
	}
	events := l.Events()
	seen := make(map[int]bool, len(events))
	for i, e := range events {
		if i > 0 && e.Time < events[i-1].Time {
			t.Fatal("events not sorted by time")
		}
		seen[e.TaskID] = true
	}
	if len(events) != 4*per || len(seen) != 4*per {
		t.Fatalf("got %d events with %d distinct IDs, want %d", len(events), len(seen), 4*per)
	}
}

func TestStateFractions(t *testing.T) {
	view := map[string][]Span{
		"w1": {{0, 5, Transferring}, {5, 10, Running}},
		"w2": {{0, 10, Running}},
	}
	f := StateFractions(view)
	if f[Transferring] != 0.25 || f[Running] != 0.75 {
		t.Fatalf("fractions = %+v", f)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	events := []Event{{Time: 1.5, Kind: TaskEnd, Worker: "w1", TaskID: 3, Bytes: 7, Source: "url"}}
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "time,kind,worker") || !strings.Contains(out, "1.500,task-end,w1,3") {
		t.Fatalf("csv = %q", out)
	}
}

func TestKindAndStateStrings(t *testing.T) {
	if TaskStart.String() != "task-start" || FileEvicted.String() != "file-evicted" {
		t.Fatal("kind strings wrong")
	}
	if Running.String() != "running" || Idle.String() != "idle" {
		t.Fatal("state strings wrong")
	}
}
