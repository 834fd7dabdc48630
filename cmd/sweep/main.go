// Command sweep runs parameter sweeps over the co-emulation engine —
// in-process on a local worker pool, or remotely against a coemud
// daemon — and emits the evaluation data as CSV files for plotting:
//
//	sweep -out results/           # writes:
//	  results/table2.csv          analytic Table 2 (paper values included)
//	  results/figure4.csv         analytic Figure 4, all four series
//	  results/des_accuracy.csv    executable-engine accuracy sweep
//	  results/des_lob.csv         executable-engine LOB-depth sweep
//
// With -spec file.json, the DES sweeps run the declarative spec's
// design and base configuration instead of the built-in stream design;
// the sweep still varies accuracy and LOB depth around that base.
//
// With -grid sweep.json, the command instead expands the declarative
// sweep document (a spec plus a "sweep" grid block, see internal/spec)
// and streams one NDJSON result line per point, in point order, plus a
// final aggregate line — the same wire format coemud's /v1/sweep
// serves, byte-identical line for line.
//
// With -remote http://host:8080[,http://host2:8080], runs are not
// executed in this process: grid mode expands the document locally,
// the DES CSV sweeps (which then require -spec) build their points
// from the spec, and either way the points are sharded across the
// daemon fleet by consistent hash (one URL is a one-shard fleet) —
// sharing the daemons' worker pools, result caches and persistent
// store with every other client. Remote submission is resilient:
// failed rounds retry with exponential backoff (-retries bounds the
// budget), a health prober evicts dead daemons and rebalances only
// their unfinished points onto survivors, and points whose results
// already sit in the daemons' shared store are spliced via
// /v1/results/{hash} instead of re-run (see internal/sweepclient).
//
// With -resume journal.ndjson (grid+remote mode), completed point
// hashes are journaled durably as the sweep streams; re-running the
// same invocation after a crash restores the journaled points from the
// daemons' store and submits only the remainder, so an interrupted
// sweep restarts exactly where it stopped.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"coemu"
	"coemu/internal/perfmodel"
	"coemu/internal/service"
	"coemu/internal/spec"
	"coemu/internal/sweepclient"
)

// jobs is the DES worker-pool width (the -j flag).
var jobs int

// desBase supplies the design, base config and cycle budget the DES
// sweeps vary around: the built-in stream design by default, or a
// declarative spec with -spec.
type desBase struct {
	design func() coemu.Design
	cfg    coemu.Config
	cycles int64
}

func main() {
	out := flag.String("out", ".", "output directory for the CSV sweeps")
	cycles := flag.Int64("cycles", 20000, "target cycles per DES run")
	specPath := flag.String("spec", "", "sweep a declarative JSON spec's design instead of the built-in stream design")
	gridPath := flag.String("grid", "", "expand and run a declarative sweep document, streaming NDJSON results to stdout")
	remote := flag.String("remote", "", "comma-separated coemud base URLs; shard the sweep across the daemon fleet instead of in-process runs")
	retries := flag.Int("retries", sweepclient.DefaultRetries, "remote mode: how many failed rounds (daemon down, 5xx, cut stream, failed point) to ride out")
	resume := flag.String("resume", "", "remote grid mode: crash-safe resume journal path; journals completed point hashes and skips them on re-run")
	flag.IntVar(&jobs, "j", runtime.NumCPU(), "parallel DES engine runs (local mode)")
	flag.Parse()
	if jobs < 1 {
		jobs = 1
	}
	remotes := splitRemotes(*remote)

	if *gridPath != "" {
		if err := runGrid(*gridPath, remotes, *retries, *resume, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *resume != "" {
		fatal(fmt.Errorf("-resume applies to remote grid sweeps (-grid with -remote)"))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	base := desBase{design: desDesign, cycles: *cycles}
	var baseSpec *coemu.Spec
	if *specPath != "" {
		s, err := coemu.LoadSpec(*specPath)
		if err != nil {
			fatal(err)
		}
		d, cfg, err := s.Compile()
		if err != nil {
			fatal(err)
		}
		base = desBase{design: func() coemu.Design { return d }, cfg: cfg, cycles: s.Run.Cycles}
		baseSpec = s
	}
	var runner desRunner = &localRunner{base: base}
	if len(remotes) > 0 {
		if baseSpec == nil {
			fatal(fmt.Errorf("-remote CSV sweeps need -spec (the daemon runs declarative specs)"))
		}
		fleet, err := sweepclient.NewFleet(fleetOptions(remotes, *retries))
		if err != nil {
			fatal(err)
		}
		defer fleet.Close()
		runner = &remoteRunner{base: baseSpec, fleet: fleet}
	}
	writeTable2(filepath.Join(*out, "table2.csv"))
	writeFigure4(filepath.Join(*out, "figure4.csv"))
	writeDESAccuracy(filepath.Join(*out, "des_accuracy.csv"), base, runner)
	writeDESLOB(filepath.Join(*out, "des_lob.csv"), base, runner)
}

// runGrid executes a sweep document and streams the NDJSON results —
// locally on the worker pool, or sharded across a coemud fleet with
// -remote.
func runGrid(path string, remotes []string, retries int, resume string, w io.Writer) error {
	if len(remotes) > 0 {
		// Expand locally so a bad document fails with a spec error
		// rather than an HTTP one, and so retry rounds can re-submit
		// individual points.
		ss, err := spec.LoadSweep(path)
		if err != nil {
			return err
		}
		points, err := ss.Expand()
		if err != nil {
			return err
		}
		opts := fleetOptions(remotes, retries)
		if resume != "" {
			journal, jerr := sweepclient.OpenJournal(resume)
			if jerr != nil {
				return jerr
			}
			defer journal.Close()
			opts.Journal = journal
		}
		fleet, err := sweepclient.NewFleet(opts)
		if err != nil {
			return err
		}
		defer fleet.Close()
		lines, rawAgg, err := fleet.RunPoints(context.Background(), points)
		if err != nil {
			return err
		}
		return sweepclient.WriteNDJSON(w, lines, rawAgg)
	}
	if resume != "" {
		return fmt.Errorf("-resume needs -remote: local grid runs have no fleet store to restore from")
	}

	ss, err := spec.LoadSweep(path)
	if err != nil {
		return err
	}
	points, err := ss.Expand()
	if err != nil {
		return err
	}
	type outcome struct {
		res *service.Result
		err error
	}
	results := parMap(len(points), func(i int) outcome {
		rep, err := runPoint(points[i])
		if err != nil {
			return outcome{err: err}
		}
		res, err := service.NewResult(rep)
		return outcome{res: res, err: err}
	})
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	enc := json.NewEncoder(bw)
	agg := service.NewSweepAggregator(len(points))
	for i, o := range results {
		pr := service.PointResult{Index: i, Name: points[i].Name, Result: o.res, Err: o.err}
		if h, err := points[i].CanonicalHash(); err == nil {
			pr.Hash = h
		}
		if err := enc.Encode(agg.Add(pr)); err != nil {
			return err
		}
	}
	return enc.Encode(agg.Line())
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

func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
	return f
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

// fleetOptions configures the daemon fleet the remote modes share,
// logging retry/rebalance decisions to stderr so they don't pollute
// the NDJSON stream on stdout.
func fleetOptions(remotes []string, retries int) sweepclient.FleetOptions {
	return sweepclient.FleetOptions{
		URLs:    remotes,
		Retries: retries,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
}

// desPoint is one DES sweep point: the base run with the paper's
// sweep parameters overridden. It deliberately carries only the fields
// the CSV sweeps vary, so local (coemu.Config) and remote (spec.Run)
// execution stay in lockstep.
type desPoint struct {
	mode         coemu.Mode
	setAccuracy  bool
	accuracy     float64
	faultSeed    uint64
	rollbackVars int
	lobDepth     int // 0 keeps the base depth
}

// desReport is the report subset the CSV writers consume, sourced from
// an in-process coemu.Report or a remote service.ReportView.
type desReport struct {
	perf           float64
	transitions    int64
	rollbacks      int64
	accesses       int64
	words          int64
	meanTransition float64
}

// desRunner executes DES sweep points, locally or against a daemon.
type desRunner interface {
	runPoints(points []desPoint) ([]*desReport, error)
}

// localRunner runs points in-process on the parMap pool.
type localRunner struct {
	base desBase
}

func (l *localRunner) runPoints(points []desPoint) ([]*desReport, error) {
	var firstErr error
	var mu sync.Mutex
	reps := parMap(len(points), func(i int) *desReport {
		cfg := l.base.cfg
		applyPointConfig(&cfg, points[i])
		rep, err := coemu.Run(l.base.design(), cfg, l.base.cycles)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return nil
		}
		return localReport(rep)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return reps, nil
}

// applyPointConfig overlays a sweep point on a base engine config.
func applyPointConfig(cfg *coemu.Config, p desPoint) {
	cfg.Mode = p.mode
	if p.setAccuracy {
		cfg.Accuracy, cfg.FaultSeed, cfg.RollbackVars = p.accuracy, p.faultSeed, p.rollbackVars
	}
	if p.lobDepth != 0 {
		cfg.LOBDepth = p.lobDepth
	}
}

// localReport projects an in-process report.
func localReport(rep *coemu.Report) *desReport {
	r := &desReport{
		perf:        rep.Perf(),
		transitions: rep.Stats.Transitions,
		rollbacks:   rep.Stats.Rollbacks,
		accesses:    rep.Channel.TotalAccesses(),
		words:       rep.Channel.TotalWords(),
	}
	if rep.TransitionLengths != nil {
		r.meanTransition = rep.TransitionLengths.Mean()
	}
	return r
}

// remoteRunner shards points across the -remote fleet as /v1/sweep
// spec batches: each daemon's pool runs its shard in parallel and its
// cache/store answer repeats without recomputation. The fleet rides
// out transient daemon failures and rebalances onto survivors.
type remoteRunner struct {
	base  *coemu.Spec
	fleet *sweepclient.Fleet
}

func (r *remoteRunner) runPoints(points []desPoint) ([]*desReport, error) {
	specs := make([]*spec.Spec, len(points))
	for i, p := range points {
		sp := *r.base
		applyPointRun(&sp.Run, p)
		specs[i] = &sp
	}
	lines, _, err := r.fleet.RunPoints(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	reps := make([]*desReport, len(lines))
	for i, pl := range lines {
		if pl.Error != "" {
			return nil, fmt.Errorf("remote sweep point %d: %s", pl.Index, pl.Error)
		}
		var v service.ReportView
		if err := json.Unmarshal(pl.Report, &v); err != nil {
			return nil, fmt.Errorf("remote sweep point %d: %w", pl.Index, err)
		}
		reps[i] = remoteReport(&v)
	}
	return reps, nil
}

// applyPointRun overlays a sweep point on a base declarative run.
func applyPointRun(run *spec.Run, p desPoint) {
	run.Mode = strings.ToLower(p.mode.String())
	if p.setAccuracy {
		run.Accuracy, run.FaultSeed, run.RollbackVars = p.accuracy, p.faultSeed, p.rollbackVars
	}
	if p.lobDepth != 0 {
		run.LOBDepth = p.lobDepth
	}
}

// remoteReport projects a daemon report view.
func remoteReport(v *service.ReportView) *desReport {
	r := &desReport{
		perf:        v.Perf,
		transitions: v.Stats.Transitions,
		rollbacks:   v.Stats.Rollbacks,
		accesses:    v.Channel.TotalAccesses(),
		words:       v.Channel.TotalWords(),
	}
	if v.TransitionLengths != nil {
		r.meanTransition = v.TransitionLengths.Mean
	}
	return r
}

// paperTable2 maps accuracy to the published (perf, ratio).
var paperTable2 = map[float64][2]float64{
	1.000: {652e3, 16.75}, 0.990: {543e3, 13.97}, 0.960: {363e3, 9.33},
	0.900: {226e3, 5.80}, 0.800: {138e3, 3.56}, 0.600: {76.7e3, 1.91},
	0.300: {46.1e3, 1.19}, 0.100: {36.7e3, 0.94},
}

func writeTable2(path string) {
	f := create(path)
	defer f.Close()
	fmt.Fprintln(f, "p,tsim,tacc,tstore,trestore,tch,perf,ratio,paper_perf,paper_ratio")
	for _, r := range perfmodel.Table2() {
		pp := paperTable2[r.P]
		fmt.Fprintf(f, "%.3f,%.3e,%.3e,%.3e,%.3e,%.3e,%.1f,%.3f,%.1f,%.3f\n",
			r.P, r.Tsim, r.Tacc, r.Tstore, r.Trestore, r.Tch, r.Perf, r.Ratio, pp[0], pp[1])
	}
}

func writeFigure4(path string) {
	f := create(path)
	defer f.Close()
	series := perfmodel.Figure4()
	fmt.Fprint(f, "p")
	for _, s := range series {
		fmt.Fprintf(f, ",%q,%q_conventional", s.Config.Label(), s.Config.Label())
	}
	fmt.Fprintln(f)
	for i, p := range perfmodel.Figure4Accuracies {
		fmt.Fprintf(f, "%.3f", p)
		for _, s := range series {
			fmt.Fprintf(f, ",%.1f,%.1f", s.Rows[i].Perf, s.Conventional)
		}
		fmt.Fprintln(f)
	}
}

func desDesign() coemu.Design {
	return coemu.Design{
		Masters: []coemu.MasterSpec{{
			Name: "dma", Domain: coemu.AccDomain,
			NewGen: func() coemu.Generator {
				return coemu.NewStream(coemu.Window{Lo: 0, Hi: 0x40000}, true,
					coemu.BurstIncr8, coemu.Size32, 0, 0, 0)
			},
		}},
		Slaves: []coemu.SlaveSpec{{
			Name: "mem", Domain: coemu.SimDomain,
			Region: coemu.Region{Lo: 0, Hi: 0x80000},
			New:    func() coemu.Slave { return coemu.NewSRAM("mem") },
		}},
	}
}

// sweepMode picks the optimistic mode the DES sweeps run in: the
// base's own mode, or ALS when the base is conservative (sweeping a
// conservative run's accuracy would be a no-op).
func sweepMode(base desBase) coemu.Mode {
	if base.cfg.Mode == coemu.Conservative {
		return coemu.ALS
	}
	return base.cfg.Mode
}

func writeDESAccuracy(path string, base desBase, runner desRunner) {
	f := create(path)
	defer f.Close()
	conv, err := runner.runPoints([]desPoint{{mode: coemu.Conservative}})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, "p,perf,ratio,transitions,rollbacks,accesses,words")
	ps := []float64{1, 0.99, 0.96, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
	points := make([]desPoint, len(ps))
	for i, p := range ps {
		points[i] = desPoint{mode: sweepMode(base), setAccuracy: true,
			accuracy: p, faultSeed: 12345, rollbackVars: 1000}
	}
	reps, err := runner.runPoints(points)
	if err != nil {
		fatal(err)
	}
	for i, rep := range reps {
		fmt.Fprintf(f, "%.2f,%.1f,%.3f,%d,%d,%d,%d\n",
			ps[i], rep.perf, rep.perf/conv[0].perf,
			rep.transitions, rep.rollbacks, rep.accesses, rep.words)
	}
}

func writeDESLOB(path string, base desBase, runner desRunner) {
	f := create(path)
	defer f.Close()
	conv, err := runner.runPoints([]desPoint{{mode: coemu.Conservative}})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, "lob_words,perf,ratio,mean_transition,accesses")
	lobs := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	points := make([]desPoint, len(lobs))
	for i, lob := range lobs {
		points[i] = desPoint{mode: sweepMode(base), lobDepth: lob}
	}
	reps, err := runner.runPoints(points)
	if err != nil {
		fatal(err)
	}
	for i, rep := range reps {
		fmt.Fprintf(f, "%d,%.1f,%.3f,%.2f,%d\n",
			lobs[i], rep.perf, rep.perf/conv[0].perf,
			rep.meanTransition, rep.accesses)
	}
}
