// Command vine-worker runs a standalone TaskVine worker: it connects to a
// manager, offers the node's resources, and serves until released.
//
// Usage:
//
//	vine-worker -manager HOST:PORT [-workdir DIR] [-cores N]
//	            [-memory BYTES] [-disk BYTES] [-id NAME]
//
// Workers may join and leave dynamically; on restart a worker re-adopts
// the worker-lifetime objects in its persistent cache directory (§2.2).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"taskvine"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "vine-worker: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a command line the flags reject.
var errUsage = errors.New("usage")

// run parses the command line, connects a worker to the manager and
// serves until released or interrupted. Usage and the worker's log go to
// stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vine-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		manager = fs.String("manager", "", "manager address host:port (required)")
		workdir = fs.String("workdir", "vine-worker-dir", "cache and sandbox directory")
		cores   = fs.Int("cores", runtime.NumCPU(), "cores to offer")
		memory  = fs.Int64("memory", 4*taskvine.GB, "memory bytes to offer")
		disk    = fs.Int64("disk", 10*taskvine.GB, "disk bytes to offer")
		id      = fs.String("id", "", "worker identity (default hostname-pid)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *manager == "" {
		fs.Usage()
		return fmt.Errorf("%w: -manager is required", errUsage)
	}
	logger := log.New(stderr, "", log.LstdFlags)
	w, err := taskvine.NewWorker(taskvine.WorkerConfig{
		ManagerAddr: *manager,
		WorkDir:     *workdir,
		Capacity:    taskvine.Resources{Cores: *cores, Memory: *memory, Disk: *disk},
		ID:          *id,
		Libraries:   []*taskvine.Library{builtinLibrary()},
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("vine-worker %s connecting to %s", w.ID(), *manager)
	return w.Run(ctx)
}

// builtinLibrary provides basic serverless functions so FunctionCall tasks
// can be exercised against stock workers.
func builtinLibrary() *taskvine.Library {
	return &taskvine.Library{
		Name: "builtin",
		Functions: map[string]taskvine.Function{
			// echo returns its arguments verbatim.
			"echo": func(args []byte) ([]byte, error) { return args, nil },
			// sleep pauses for {"seconds": N} and reports the host.
			"sleep": func(args []byte) ([]byte, error) {
				var req struct {
					Seconds float64 `json:"seconds"`
				}
				if err := json.Unmarshal(args, &req); err != nil {
					return nil, err
				}
				time.Sleep(time.Duration(req.Seconds * float64(time.Second)))
				host, _ := os.Hostname()
				return json.Marshal(fmt.Sprintf("slept %.2fs on %s", req.Seconds, host))
			},
		},
	}
}
