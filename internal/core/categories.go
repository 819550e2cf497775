package core

import (
	"sort"

	"taskvine/internal/taskspec"
)

// CategoryStats aggregates the observed behaviour of tasks sharing a
// category label — the feedback loop behind automatic resource sizing:
// applications can inspect what a category actually consumed and right-size
// future declarations (the "larger allocation" mechanism of §2.1 made
// data-driven).
type CategoryStats struct {
	Category string `json:"category"`
	// Done and Failed count finished tasks.
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// MaxDisk and MaxMemory are the largest observed consumptions in
	// bytes (zero when never measured).
	MaxDisk   int64 `json:"max_disk"`
	MaxMemory int64 `json:"max_memory"`
	// TotalRunMS and TotalStagedMS accumulate worker-side time.
	TotalRunMS    int64 `json:"total_run_ms"`
	TotalStagedMS int64 `json:"total_staged_ms"`
}

// MeanRunMS returns the mean execution time of completed tasks.
func (c CategoryStats) MeanRunMS() int64 {
	n := c.Done + c.Failed
	if n == 0 {
		return 0
	}
	return c.TotalRunMS / int64(n)
}

// recordCategory folds one completion into the per-category aggregate;
// runs inside the event loop.
func (m *Manager) recordCategory(t *taskState, res *Result) {
	cat := t.spec.Category
	if cat == "" {
		cat = "default"
	}
	s := m.categories[cat]
	if s == nil {
		s = &CategoryStats{Category: cat}
		m.categories[cat] = s
	}
	if res.OK {
		s.Done++
	} else {
		s.Failed++
	}
	if res.MeasuredDisk > s.MaxDisk {
		s.MaxDisk = res.MeasuredDisk
	}
	if res.MeasuredMemory > s.MaxMemory {
		s.MaxMemory = res.MeasuredMemory
	}
	s.TotalRunMS += res.RunMS
	s.TotalStagedMS += res.StagedMS
}

// Categories returns a snapshot of per-category statistics, sorted by name.
func (m *Manager) Categories() []CategoryStats {
	reply := make(chan []CategoryStats, 1)
	out, _ := ask(m, event{kind: evCategories, categories: reply}, reply) // nil once the loop has exited
	return out
}

func (m *Manager) buildCategories() []CategoryStats {
	out := make([]CategoryStats, 0, len(m.categories))
	for _, s := range m.categories {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}

// autoSize fills unspecified disk and memory requests from category
// history: twice the largest observed consumption, so occasional outliers
// still fit. Runs inside the event loop before the task is queued.
func (m *Manager) autoSize(spec *taskspec.Spec) {
	if !m.cfg.AutoSizeResources {
		return
	}
	cat := spec.Category
	if cat == "" {
		cat = "default"
	}
	s := m.categories[cat]
	if s == nil || s.Done == 0 {
		return
	}
	if spec.Resources.Disk == 0 && s.MaxDisk > 0 {
		spec.Resources.Disk = 2 * s.MaxDisk
	}
	if spec.Resources.Memory == 0 && s.MaxMemory > 0 {
		spec.Resources.Memory = 2 * s.MaxMemory
	}
}
