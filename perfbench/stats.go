package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). It sorts
// xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond counts the samples strictly greater than v.
func beyond(xs []float64, v float64) float64 {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return float64(n)
}

// tails fills the traced-run tail metrics from latency samples in ms.
func tails(layer map[string]float64, lat []float64) {
	p99 := quantile(lat, 0.99)
	p999 := quantile(lat, 0.999)
	layer["latency_p99_ms"] = p99
	layer["latency_p99_beyond"] = beyond(lat, p99)
	layer["latency_p999_ms"] = p999
	layer["latency_p999_beyond"] = beyond(lat, p999)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder keeps the spans the benchmark records around its own calls into
// the program, in memory until the phase ends. A disabled recorder costs
// one branch per call site.
type recorder struct {
	on   bool
	base time.Time
	mu   sync.Mutex
	// dur holds span durations in microseconds by span name.
	dur map[string][]float64 // guarded by mu
	// submits pairs each submitted task ID with the time its submission
	// began, for dispatch-wait accounting. The entries hold no pointers,
	// so a long run's spans add nothing for the collector to scan.
	submits []submitSpan // guarded by mu
}

type submitSpan struct {
	id int
	at time.Duration // since base
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, base: time.Now(), dur: map[string][]float64{}}
}

// begin opens a span; the zero time when tracing is off.
func (r *recorder) begin() time.Time {
	if !r.on {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span opened by begin.
func (r *recorder) end(name string, t0 time.Time) {
	if !r.on {
		return
	}
	d := float64(time.Since(t0)) / float64(time.Microsecond)
	r.mu.Lock()
	r.dur[name] = append(r.dur[name], d)
	r.mu.Unlock()
}

// call closes a span around a Submit or Invoke call that returned task id.
func (r *recorder) call(t0 time.Time, id int) {
	if !r.on {
		return
	}
	d := float64(time.Since(t0)) / float64(time.Microsecond)
	r.mu.Lock()
	r.dur["core.call"] = append(r.dur["core.call"], d)
	r.submits = append(r.submits, submitSpan{id: id, at: t0.Sub(r.base)})
	r.mu.Unlock()
}

// p50 returns the median duration of the named span, in microseconds.
func (r *recorder) p50(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.dur[name])
}

// cpuTime returns the CPU time of this process plus its reaped children.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	// Getrusage cannot fail for these two targets.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		return float64(ru.Maxrss) / 1024
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeProbe measures the Go runtime's collector and allocator across a
// traced phase, sampling the live heap so its peak is seen.
type runtimeProbe struct {
	before runtime.MemStats
	stop   chan struct{}
	done   chan struct{}
	peak   float64 // bytes; written by the sampler, read after done
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.before)
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				p.peak = math.Max(p.peak, float64(s[0].Value.Uint64()))
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler and writes the runtime metrics per task.
func (p *runtimeProbe) finish(layer map[string]float64, tasks int64) {
	close(p.stop)
	<-p.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layer["runtime.gc_cycles"] = float64(after.NumGC - p.before.NumGC)
	layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6
	if tasks > 0 {
		layer["runtime.alloc_kb_per_task"] = float64(after.TotalAlloc-p.before.TotalAlloc) / 1024 / float64(tasks)
	}
	layer["runtime.heap_peak_mb"] = p.peak / (1 << 20)
}

// env is the environment recorded with every result.
type env struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	WorkDir      string  `json:"work_dir"`
	WorkDirFS    string  `json:"work_dir_fs"`
	Tmpfs        bool    `json:"work_dir_tmpfs"`
	Spread       bool    `json:"work_dir_spread"`
	Sizes        sizes   `json:"sizes"`
}

func recordEnv(cfg *config) env {
	fsType := fsTypeOf(cfg.workDir)
	return env{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceSHA256: sourceDigest(cfg.root),
		WorkDir:      cfg.workDir,
		WorkDirFS:    fsType,
		Tmpfs:        fsType == "tmpfs",
		Spread:       cfg.spread,
		Sizes:        cfg.sizes,
	}
}

// commit returns the VCS revision stamped into the binary, when the build
// ran inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (hidden
// directories skipped), identifying the code measured even where no VCS
// metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsTypeOf names the filesystem holding path.
func fsTypeOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}
