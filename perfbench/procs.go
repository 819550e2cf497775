package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// runChildren measures the run as cfg.sizes.Procs consecutive child
// processes, each running the workload for an equal share of the time, and
// reports the median of their metrics. Timing differs from one process to
// the next (memory layout, collector pacing), so the median over several
// processes is steadier than any single one.
func runChildren(cfg *config, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	share := cfg.seconds / float64(cfg.sizes.Procs)
	args := []string{
		"--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(share, 'f', -1, 64),
		"--trace", "0",
		"--workdir", cfg.workDir,
		"--child",
	}
	values := map[string][]float64{}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	for i := 0; i < cfg.sizes.Procs; i++ {
		child, err := runChild(exe, args, time.Duration((share+30)*float64(time.Second)), stderr)
		if err != nil {
			return nil, fmt.Errorf("child process %d: %w", i, err)
		}
		rep.Attempted += child.Attempted
		rep.Failed += child.Failed
		rep.Correct = rep.Correct && child.Correct
		for name, m := range child.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	for _, m := range endToEnd {
		v, ok := values[m.name]
		if !ok || len(v) != cfg.sizes.Procs {
			return nil, fmt.Errorf("a child process did not report %s", m.name)
		}
		rep.Metrics[m.name] = metric{Value: median(v), Unit: m.unit}
	}
	return rep, nil
}

// runChild runs one child to completion, killing it after timeout, and
// parses the report on the last line of its standard output. A child whose
// checks failed still reports; one that printed no report is an error.
func runChild(exe string, args []string, timeout time.Duration, stderr io.Writer) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parsing its report: %w", err)
	}
	return &rep, nil
}
