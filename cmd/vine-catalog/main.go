// Command vine-catalog runs a standalone catalog server: managers advertise
// themselves to it, and vine-status -catalog lists them.
//
// Usage:
//
//	vine-catalog [-listen ADDR] [-ttl DURATION]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"taskvine/internal/catalog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "vine-catalog: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a command line the flags reject.
var errUsage = errors.New("usage")

// run parses the command line and serves the catalog until interrupted.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vine-catalog", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen = fs.String("listen", "127.0.0.1:9097", "address to serve on")
		ttl    = fs.Duration("ttl", time.Minute, "entry expiry without updates")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("%w: unexpected arguments %q", errUsage, fs.Args())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	s, err := catalog.NewServer(*listen, *ttl)
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Fprintf(stdout, "catalog serving on %s (ttl %s)\n", s.Addr(), *ttl)
	<-sig
	return nil
}
