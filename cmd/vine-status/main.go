// Command vine-status queries a manager's monitoring endpoint and renders
// the cluster state: workers, their committed resources and cache contents,
// and the task pipeline — the operator's view of the manager's "detailed
// picture of the distributed state" (§2.2).
//
// Usage:
//
//	vine-status [-json] http://MANAGER-STATUS-ADDR
//	vine-status -metrics http://MANAGER-STATUS-ADDR   # Prometheus text
//	vine-status -debug   http://MANAGER-STATUS-ADDR   # scheduling tables
//
// The manager exposes the endpoint via Manager.ServeStatus (the examples
// and vine-run print it at startup when enabled). -metrics dumps the
// instrument families in Prometheus text format; -debug renders the deep
// scheduling state (task queue, replica table, in-flight transfers, retry
// backoffs) from /debug/vine.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"

	"taskvine/internal/catalog"
	"taskvine/internal/core"
	"taskvine/internal/resources"
)

// listCatalog renders the managers advertised at a catalog server.
func listCatalog(stdout io.Writer, addr, name string) error {
	entries, err := catalog.Query(addr, name)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PROJECT\tADDRESS\tWORKERS\tWAITING\tRUNNING\tLAST HEARD")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\n",
			e.Name, e.Addr, e.Workers, e.TasksWaiting, e.TasksRunning,
			e.LastHeard.Format("15:04:05"))
	}
	return tw.Flush()
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "vine-status: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a command line the flags reject.
var errUsage = errors.New("usage")

// run parses the command line and renders what it asks for to stdout;
// usage goes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vine-status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	raw := fs.Bool("json", false, "print the raw status JSON")
	cat := fs.String("catalog", "", "list managers advertised at this catalog server instead")
	name := fs.String("name", "", "filter catalog listing by project name")
	metricsDump := fs.Bool("metrics", false, "dump the manager's /metrics endpoint (Prometheus text format)")
	debugDump := fs.Bool("debug", false, "render the manager's /debug/vine scheduling tables")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *cat != "" {
		return listCatalog(stdout, *cat, *name)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("%w: want one manager status address", errUsage)
	}
	url := fs.Arg(0)
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	switch {
	case *metricsDump:
		return dumpMetrics(stdout, url+"/metrics")
	case *debugDump:
		return runDebug(stdout, url+"/debug/vine", *raw)
	default:
		return runStatus(stdout, url+"/status", *raw)
	}
}

// dumpMetrics streams the Prometheus text exposition verbatim; the format
// is already line-oriented and human-readable.
func dumpMetrics(stdout io.Writer, url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	_, err = io.Copy(stdout, resp.Body)
	return err
}

// runDebug renders the /debug/vine scheduling tables.
func runDebug(stdout io.Writer, url string, raw bool) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var d core.DebugReport
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return fmt.Errorf("decoding debug report: %w", err)
	}
	if raw {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	}
	fmt.Fprintf(stdout, "manager %s  t=%.1fs\n\n", d.Addr, d.Now)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	if len(d.Tasks) > 0 {
		fmt.Fprintln(tw, "TASK\tSTATE\tCATEGORY\tWORKER\tRETRIES\tWAITING\tMISSING INPUTS")
		for _, t := range d.Tasks {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%.1fs\t%s\n",
				t.ID, t.State, t.Category, t.Worker, t.Retries,
				t.WaitingSeconds, strings.Join(t.MissingInputs, ","))
		}
		fmt.Fprintln(tw)
	}
	if len(d.Replicas) > 0 {
		fmt.Fprintln(tw, "FILE\tREADY ON\tPENDING ON")
		for _, r := range d.Replicas {
			fmt.Fprintf(tw, "%s\t%s\t%s\n",
				r.File, strings.Join(r.Ready, ","), strings.Join(r.Pending, ","))
		}
		fmt.Fprintln(tw)
	}
	if len(d.Transfers) > 0 {
		fmt.Fprintln(tw, "TRANSFER\tFILE\tSOURCE\tDEST")
		for _, t := range d.Transfers {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", t.ID, t.File, t.Source, t.Dest)
		}
		fmt.Fprintln(tw)
	}
	if len(d.Retries) > 0 {
		fmt.Fprintln(tw, "RETRYING FILE\tDEST\tATTEMPTS\tBLOCKED\tWAIT")
		for _, r := range d.Retries {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t%.1fs\n",
				r.File, r.Dest, r.Attempts, r.Blocked, r.WaitSecs)
		}
	}
	return tw.Flush()
}

// runStatus renders the /status summary: the task pipeline and each
// worker's resources, cache and libraries.
func runStatus(stdout io.Writer, url string, raw bool) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var s core.Status
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("decoding status: %w", err)
	}
	if raw {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	fmt.Fprintf(stdout, "manager %s  up %.0fs\n", s.Addr, s.UptimeSeconds)
	fmt.Fprintf(stdout, "tasks: %d waiting / %d staging / %d running / %d done / %d failed\n",
		s.TasksWaiting, s.TasksStaging, s.TasksRunning, s.TasksDone, s.TasksFailed)
	fmt.Fprintf(stdout, "files declared: %d   transfers in flight: %d   workers: %d\n\n",
		s.FilesDeclared, s.TransfersInFlight, len(s.Workers))
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKER\tCORES\tMEMORY\tDISK\tTASKS\tCACHED\tLIBRARIES")
	for _, w := range s.Workers {
		fmt.Fprintf(tw, "%s\t%d/%d\t%s/%s\t%s/%s\t%d\t%d\t%s\n",
			w.ID,
			w.Committed.Cores, w.Capacity.Cores,
			resources.FormatBytes(w.Committed.Memory), resources.FormatBytes(w.Capacity.Memory),
			resources.FormatBytes(w.Committed.Disk), resources.FormatBytes(w.Capacity.Disk),
			w.RunningTasks, w.CachedFiles, strings.Join(w.Libraries, ","))
	}
	return tw.Flush()
}
