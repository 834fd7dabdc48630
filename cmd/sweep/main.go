// Command sweep expands a declarative sweep document (a spec plus a
// "sweep" grid block, see internal/spec) and runs every point —
// in-process on a local worker pool, or remotely on a coemud fleet:
//
//	sweep -grid sweep.json                # NDJSON, one line per point
//	sweep -grid examples/paper/des_accuracy.json -csv > des_accuracy.csv
//
// By default it streams one NDJSON result line per point, in point
// order, plus a final aggregate line — the same wire format coemud's
// /v1/sweep serves, byte-identical line for line.
//
// With -csv it instead runs the document's base spec as the baseline
// point ahead of the expanded points and writes one CSV row per point,
// with the ratio taken against the baseline. The last axis picks the
// columns: run.accuracy gives the accuracy sweep's
// (p,perf,ratio,transitions,rollbacks,accesses,words) and run.lob_depth
// the LOB sweep's (lob_words,perf,ratio,mean_transition,accesses). The
// paper's two sweeps are checked in as examples/paper/des_accuracy.json
// and examples/paper/des_lob.json, each beside the CSV it produces.
//
// With -remote http://host:8080[,http://host2:8080], runs are not
// executed in this process: the document is expanded locally and the
// points are sharded across the daemon fleet by consistent hash (one
// URL is a one-shard fleet) — sharing the daemons' worker pools,
// result caches and persistent store with every other client. Remote
// submission is resilient: failed rounds retry with exponential
// backoff (-retries bounds the budget), a health prober evicts dead
// daemons and rebalances only their unfinished points onto survivors,
// and points whose results already sit in the daemons' shared store
// are spliced via /v1/results/{hash} instead of re-run (see
// internal/sweepclient). Both outputs are byte-identical to the local
// run's.
//
// With -resume journal.ndjson (remote mode), completed point hashes
// are journaled durably as the sweep streams; re-running the same
// invocation after a crash restores the journaled points from the
// daemons' store and submits only the remainder, so an interrupted
// sweep restarts exactly where it stopped.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"coemu"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/sweepclient"
)

// jobs is the local worker-pool width (the -j flag).
var jobs int

func main() {
	gridPath := flag.String("grid", "", "sweep document to expand and run (required)")
	csv := flag.Bool("csv", false, "run the base spec as a baseline and write CSV rows (swept run.accuracy or run.lob_depth) instead of NDJSON")
	remote := flag.String("remote", "", "comma-separated coemud base URLs; shard the sweep across the daemon fleet instead of in-process runs")
	retries := flag.Int("retries", sweepclient.DefaultRetries, "remote mode: how many failed rounds (daemon down, 5xx, cut stream, failed point) to ride out")
	resume := flag.String("resume", "", "remote mode: crash-safe resume journal path; journals completed point hashes and skips them on re-run")
	flag.IntVar(&jobs, "j", runtime.NumCPU(), "parallel engine runs (local mode)")
	flag.Parse()
	if jobs < 1 {
		jobs = 1
	}
	if *gridPath == "" {
		fmt.Fprintln(os.Stderr, "sweep: -grid is required (the paper's sweeps are examples/paper/*.json)")
		os.Exit(2)
	}
	if err := runGrid(*gridPath, splitRemotes(*remote), *retries, *resume, *csv, os.Stdout); err != nil {
		fatal(err)
	}
}

// runGrid expands a sweep document, runs its points — locally on the
// worker pool, or sharded across a coemud fleet with remotes — and
// writes the results as NDJSON, or as CSV with the base spec run first
// as the baseline.
func runGrid(path string, remotes []string, retries int, resume string, csv bool, w io.Writer) error {
	if resume != "" && len(remotes) == 0 {
		return fmt.Errorf("-resume needs -remote: local grid runs have no fleet store to restore from")
	}
	// Expand locally even for remote runs, so a bad document fails with
	// a spec error rather than an HTTP one, and so retry rounds can
	// re-submit individual points.
	ss, err := spec.LoadSweep(path)
	if err != nil {
		return err
	}
	points, err := ss.Expand()
	if err != nil {
		return err
	}
	var shape csvShape
	if csv {
		if shape, err = csvShapeOf(ss); err != nil {
			return err
		}
		base := ss.Spec
		points = append([]*spec.Spec{&base}, points...)
	}

	var lines []service.SweepLine
	var rawAgg []byte
	if len(remotes) > 0 {
		lines, rawAgg, err = runRemote(points, remotes, retries, resume)
		if err != nil {
			return err
		}
	} else {
		lines = runLocal(points)
	}
	if csv {
		return writeCSV(w, shape, points, lines)
	}
	return sweepclient.WriteNDJSON(w, lines, rawAgg)
}

// runLocal runs every point in-process on the parMap pool and settles
// each into its wire line, exactly as a daemon would serve it.
func runLocal(points []*spec.Spec) []service.SweepLine {
	return parMap(len(points), func(i int) service.SweepLine {
		ln := service.SweepLine{Index: i, Name: points[i].Name}
		if h, err := points[i].CanonicalHash(); err == nil {
			ln.Hash = h
		}
		rep, err := runPoint(points[i])
		if err == nil {
			ln.Report, err = service.EncodeReport(rep)
		}
		if err != nil {
			ln.Error = err.Error()
		}
		return ln
	})
}

// runRemote shards the points across the daemon fleet, journaling
// completions when resume names a journal.
func runRemote(points []*spec.Spec, remotes []string, retries int, resume string) ([]service.SweepLine, []byte, error) {
	opts := sweepclient.FleetOptions{
		URLs:    remotes,
		Retries: retries,
		// Retry/rebalance decisions go to stderr so they don't pollute
		// the results on stdout.
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if resume != "" {
		journal, err := sweepclient.OpenJournal(resume)
		if err != nil {
			return nil, nil, err
		}
		defer journal.Close()
		opts.Journal = journal
	}
	fleet, err := sweepclient.NewFleet(opts)
	if err != nil {
		return nil, nil, err
	}
	defer fleet.Close()
	return fleet.RunPoints(context.Background(), points)
}

// runPoint compiles and runs one expanded spec in-process.
func runPoint(sp *spec.Spec) (*coemu.Report, error) {
	d, cfg, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	return coemu.Run(d, cfg, sp.Run.Cycles)
}

// parMap computes f(0..n-1) on a pool of jobs workers and returns the
// results in index order. Each engine run is independent and
// single-threaded, so the sweeps scale with cores while the output
// rows stay in their deterministic order.
func parMap[T any](n int, f func(i int) T) []T {
	res := make([]T, n)
	var wg sync.WaitGroup
	next := make(chan int)
	workers := jobs
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return res
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// splitRemotes parses the comma-separated -remote list.
func splitRemotes(remote string) []string {
	var urls []string
	for _, u := range strings.Split(remote, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// csvShape is one CSV projection of a sweep: its header, and the row a
// point's report renders to given the baseline's performance.
type csvShape struct {
	header string
	row    func(w io.Writer, sp *spec.Spec, v *service.ReportView, basePerf float64)
}

// csvShapes maps the swept field (the document's last axis) to its
// projection.
var csvShapes = map[string]csvShape{
	"run.accuracy": {
		header: "p,perf,ratio,transitions,rollbacks,accesses,words",
		row: func(w io.Writer, sp *spec.Spec, v *service.ReportView, basePerf float64) {
			fmt.Fprintf(w, "%.2f,%.1f,%.3f,%d,%d,%d,%d\n",
				sp.Run.Accuracy, v.Perf, v.Perf/basePerf,
				v.Stats.Transitions, v.Stats.Rollbacks, v.Channel.TotalAccesses(), v.Channel.TotalWords())
		},
	},
	"run.lob_depth": {
		header: "lob_words,perf,ratio,mean_transition,accesses",
		row: func(w io.Writer, sp *spec.Spec, v *service.ReportView, basePerf float64) {
			var mean float64
			if v.TransitionLengths != nil {
				mean = v.TransitionLengths.Mean
			}
			fmt.Fprintf(w, "%d,%.1f,%.3f,%.2f,%d\n",
				sp.Run.LOBDepth, v.Perf, v.Perf/basePerf, mean, v.Channel.TotalAccesses())
		},
	},
}

// csvShapeOf picks the projection for a document's swept field.
func csvShapeOf(ss *spec.SweepSpec) (csvShape, error) {
	if ss.Sweep == nil {
		return csvShape{}, fmt.Errorf("-csv needs a sweep block whose last axis is run.accuracy or run.lob_depth")
	}
	field := ss.Sweep.Axes[len(ss.Sweep.Axes)-1].Field
	shape, ok := csvShapes[field]
	if !ok {
		return csvShape{}, fmt.Errorf("-csv has no columns for swept field %q: the last axis must be run.accuracy or run.lob_depth", field)
	}
	return shape, nil
}

// writeCSV projects settled lines through their report views: lines[0]
// is the baseline, the rest are the rows.
func writeCSV(w io.Writer, shape csvShape, points []*spec.Spec, lines []service.SweepLine) error {
	views := make([]*service.ReportView, len(lines))
	for i, ln := range lines {
		if ln.Error != "" {
			return fmt.Errorf("sweep point %d (%s): %s", i, ln.Name, ln.Error)
		}
		v, err := (&service.Result{JSON: ln.Report}).View()
		if err != nil {
			return fmt.Errorf("sweep point %d (%s): %w", i, ln.Name, err)
		}
		views[i] = v
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, shape.header)
	for i := 1; i < len(views); i++ {
		shape.row(bw, points[i], views[i], views[0].Perf)
	}
	return bw.Flush()
}
