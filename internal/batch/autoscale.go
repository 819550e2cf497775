package batch

import (
	"fmt"
	"time"

	"taskvine/internal/metrics"
)

// AutoscaleConfig parameterizes an Autoscaler.
type AutoscaleConfig struct {
	// Min and Max bound the pool size the autoscaler will request.
	Min, Max int
	// TasksPerWorker is the queue depth one worker is expected to absorb;
	// the desired pool size is ceil(depth / TasksPerWorker), clamped to
	// [Min, Max]. Default 4.
	TasksPerWorker int
	// Interval is the probe period of the background loop; default 1s.
	Interval time.Duration
	// QueueDepth reports the demand signal — typically the manager's
	// count of waiting plus staging tasks.
	QueueDepth func() int
	// ScaleDownAfter is how many consecutive probes must want a smaller
	// pool before the autoscaler shrinks it (hysteresis against releasing
	// workers that a bursty workload will want back); default 3. Growth
	// is immediate.
	ScaleDownAfter int
	// Metrics receives the vine_batch_resizes_total counter; nil
	// allocates a private registry.
	Metrics *metrics.Registry
}

// Autoscaler elastically resizes a worker Pool against an observed queue
// depth, the way Parsl-style executors scale blocks against outstanding
// tasks: grow as soon as demand exceeds capacity, shrink only after
// demand stays low. All decisions happen in Step, which the background
// loop calls on a ticker and deterministic tests call directly.
type Autoscaler struct {
	cfg     AutoscaleConfig
	pool    *Pool
	vm      *metrics.VineMetrics
	low     int // consecutive probes wanting a smaller pool
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewAutoscaler validates cfg and attaches an autoscaler to pool. The
// loop is not started; call Start, or drive Step directly.
func NewAutoscaler(pool *Pool, cfg AutoscaleConfig) (*Autoscaler, error) {
	if cfg.QueueDepth == nil {
		return nil, fmt.Errorf("batch: autoscaler needs a QueueDepth probe")
	}
	if cfg.Min < 0 || cfg.Max < cfg.Min {
		return nil, fmt.Errorf("batch: invalid autoscale bounds [%d, %d]", cfg.Min, cfg.Max)
	}
	if cfg.TasksPerWorker <= 0 {
		cfg.TasksPerWorker = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.ScaleDownAfter <= 0 {
		cfg.ScaleDownAfter = 3
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Autoscaler{
		cfg:  cfg,
		pool: pool,
		vm:   metrics.ForRegistry(cfg.Metrics),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// desired converts a queue depth into a target pool size.
func (a *Autoscaler) desired(depth int) int {
	want := (depth + a.cfg.TasksPerWorker - 1) / a.cfg.TasksPerWorker
	if want < a.cfg.Min {
		want = a.cfg.Min
	}
	if want > a.cfg.Max {
		want = a.cfg.Max
	}
	return want
}

// Step performs one probe-and-decide cycle and returns the pool size it
// settled on. Growth applies immediately; shrinking waits for
// ScaleDownAfter consecutive low-demand probes.
func (a *Autoscaler) Step() int {
	depth := a.cfg.QueueDepth()
	want := a.desired(depth)
	live := a.pool.Live()
	switch {
	case want > live:
		a.low = 0
		if err := a.pool.Resize(want); err != nil {
			a.pool.logf("autoscale grow to %d: %v", want, err)
			return live
		}
		a.vm.BatchResizes.Inc()
		return want
	case want < live:
		a.low++
		if a.low < a.cfg.ScaleDownAfter {
			return live
		}
		a.low = 0
		if err := a.pool.Resize(want); err != nil {
			a.pool.logf("autoscale shrink to %d: %v", want, err)
			return live
		}
		a.vm.BatchResizes.Inc()
		return want
	default:
		a.low = 0
		return live
	}
}

// Start launches the background probe loop.
func (a *Autoscaler) Start() {
	a.started = true
	go func() {
		defer close(a.done)
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				a.Step()
			}
		}
	}()
}

// Stop ends the background loop (if started) and waits for it.
func (a *Autoscaler) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	if a.started {
		<-a.done
	}
}
