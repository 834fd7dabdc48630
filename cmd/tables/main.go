// Command tables regenerates every table and figure of the paper's
// evaluation, printing the published values next to the reproduced ones.
//
//	tables -exp all        # everything (default)
//	tables -exp channel    # §1.2 channel characterization
//	tables -exp table2     # Table 2: Performance of ALS
//	tables -exp figure4    # Figure 4: accuracy sweep, four configs
//	tables -exp sla        # §6 SLA claims
//	tables -exp headline   # abstract's 1500% claim
//	tables -exp des        # executable-engine accuracy sweep (DES)
//	tables -out results/   # writes table2.csv and figure4.csv
//
// The DES experiment runs the accuracy sweep document embedded from
// examples/paper/des_accuracy.json, the same document
// `sweep -grid ... -csv` runs locally or on a coemud fleet.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coemu"
	"coemu/examples/paper"
	"coemu/internal/device"
	"coemu/internal/perfmodel"
	"coemu/internal/vclock"
)

func main() {
	exp := flag.String("exp", "all", "experiment: channel|table2|figure4|sla|headline|des|all")
	out := flag.String("out", "", "write the analytic Table 2 and Figure 4 as table2.csv and figure4.csv into this directory instead of printing")
	flag.Parse()

	if *out != "" {
		if err := writeCSVs(*out); err != nil {
			fatal(err)
		}
		return
	}
	switch *exp {
	case "channel":
		channelExp()
	case "table2":
		table2Exp()
	case "figure4":
		figure4Exp()
	case "sla":
		slaExp()
	case "headline":
		headlineExp()
	case "des":
		desExp()
	case "all":
		channelExp()
		fmt.Println()
		table2Exp()
		fmt.Println()
		figure4Exp()
		fmt.Println()
		slaExp()
		fmt.Println()
		headlineExp()
		fmt.Println()
		desExp()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// channelExp reproduces the §1.2 channel characterization: the layered
// startup overhead and the effective bandwidth collapse for short
// transfers.
func channelExp() {
	s := device.IPROVE()
	fmt.Println("== E1: simulator-accelerator channel characterization (paper §1.2) ==")
	fmt.Printf("startup overhead: %v (paper: 12.2 µs)\n", s.Startup())
	for _, l := range s.Layers {
		fmt.Printf("  %-48s %v\n", l.Name, l.Startup)
	}
	fmt.Printf("payload sim->acc: %.2f ns/word (paper: 49.95)\n", float64(s.WordPsSimToAcc)/1e3)
	fmt.Printf("payload acc->sim: %.2f ns/word (paper: 75.73)\n", float64(s.WordPsAccToSim)/1e3)
	fmt.Println("\nwords  access-cost   eff-bandwidth  startup-share")
	for _, n := range []int{1, 2, 5, 16, 64, 256, 1024, 8192} {
		fmt.Printf("%5d  %11v  %9.2f MW/s  %8.1f%%\n",
			n, s.AccessCost(device.SimToAcc, n),
			s.EffectiveBandwidth(device.SimToAcc, n)/1e6,
			100*s.StartupFraction(device.SimToAcc, n))
	}
	fmt.Println("\nA per-cycle payload of a few words (the paper: at most five for")
	fmt.Println("bus-connected SoCs; at most six in this engine's packing) keeps the")
	fmt.Println("channel >97% startup overhead — the motivation for merging transfers")
	fmt.Println("into burst packets.")
}

// paperTable2 is the published table for side-by-side printing.
var paperTable2 = map[float64][2]float64{ // p -> {perf, ratio}
	1.000: {652e3, 16.75}, 0.990: {543e3, 13.97}, 0.960: {363e3, 9.33},
	0.900: {226e3, 5.80}, 0.800: {138e3, 3.56}, 0.600: {76.7e3, 1.91},
	0.300: {46.1e3, 1.19}, 0.100: {36.7e3, 0.94},
}

func table2Exp() {
	fmt.Println("== E2: Table 2 — Performance of ALS (analytic model) ==")
	fmt.Println("assumptions: sim 1,000 kcyc/s, acc 10 Mcyc/s, LOB 64 words, 1000 rollback vars")
	conv := perfmodel.Default().Conventional()
	fmt.Printf("conventional baseline: %.1f kcyc/s (paper: 38.9)\n\n", conv/1e3)
	fmt.Println(" p      Tsim     Tacc     Tstore    Trest.    Tch       Perf      Ratio | paper Perf  Ratio")
	for _, r := range perfmodel.Table2() {
		pp := paperTable2[r.P]
		fmt.Printf("%5.3f  %.1e  %.1e  %.2e  %.2e  %.1e  %7.1fk  %5.2f | %8.1fk  %5.2f\n",
			r.P, r.Tsim, r.Tacc, r.Tstore, r.Trestore, r.Tch, r.Perf/1e3, r.Ratio,
			pp[0]/1e3, pp[1])
	}
}

func figure4Exp() {
	fmt.Println("== E3: Figure 4 — simulation performance vs prediction accuracy ==")
	series := perfmodel.Figure4()
	fmt.Print("  p    ")
	for _, s := range series {
		fmt.Printf("  %-22s", s.Config.Label())
	}
	fmt.Println()
	for i, p := range perfmodel.Figure4Accuracies {
		fmt.Printf("%5.3f  ", p)
		for _, s := range series {
			fmt.Printf("  %-22.0f", s.Rows[i].Perf)
		}
		fmt.Println()
	}
	fmt.Println("\nconventional baselines (horizontal lines in the figure):")
	fmt.Printf("  sim=100k:  %.1f kcyc/s (paper: 28.8)\n", series[0].Conventional/1e3)
	fmt.Printf("  sim=1000k: %.1f kcyc/s (paper: 38.9)\n", series[2].Conventional/1e3)
}

func slaExp() {
	fmt.Println("== E4: SLA results (paper §6 text) ==")
	for _, r := range perfmodel.SLA() {
		paperGain, paperBE := 3.25, 0.98
		if r.SimSpeed == 1e6 {
			paperGain, paperBE = 15.34, 0.70
		}
		fmt.Printf("sim=%6.0fk: max gain %.2f (paper %.2f), break-even accuracy %.2f (paper %.2f)\n",
			r.SimSpeed/1e3, r.MaxGain, paperGain, r.BreakEven, paperBE)
	}
}

func headlineExp() {
	fmt.Println("== E5: headline claim (abstract) ==")
	fmt.Printf("gain at 100%% prediction accuracy: %.0f%% (paper: ~1500%%)\n",
		coemu.HeadlineGainPercent())
}

// desExp runs the embedded accuracy sweep document on the executable
// engine — the canonical ALS configuration (streaming RTL master in the
// accelerator, TL memory in the simulator) with injected fault rates —
// and prints each engine row beside the analytic model's value at the
// same accuracy and, where Table 2 has the accuracy, the published one.
// The document's base spec is the conventional baseline.
func desExp() {
	fmt.Println("== E6: executable engine (DES) accuracy sweep, ALS streaming design ==")
	ss, err := paper.Load("des_accuracy.json")
	if err != nil {
		fatal(err)
	}
	points, err := ss.Expand()
	if err != nil {
		fatal(err)
	}
	conv := runSpec(&ss.Spec)
	fmt.Printf("conventional: %.1f kcyc/s (%d channel accesses)\n\n",
		conv.Perf()/1e3, conv.Channel.TotalAccesses())
	model := perfmodel.Default()
	fmt.Println(" p      perf       ratio  transitions  rollbacks  accesses  words | analytic  ratio | paper     ratio")
	var organic *coemu.Report
	for _, sp := range points {
		rep := runSpec(sp)
		an := model.Optimistic(perfmodel.LeaderAcc, sp.Run.Accuracy)
		paperCol := "        -      -"
		if pp, ok := paperTable2[sp.Run.Accuracy]; ok {
			paperCol = fmt.Sprintf("%7.1fk  %5.2f", pp[0]/1e3, pp[1])
		}
		fmt.Printf("%5.2f  %8.1fk  %6.2f  %11d  %9d  %8d  %6d | %7.1fk  %5.2f | %s\n",
			sp.Run.Accuracy, rep.Perf()/1e3, rep.Perf()/conv.Perf(),
			rep.Stats.Transitions, rep.Stats.Rollbacks,
			rep.Channel.TotalAccesses(), rep.Channel.TotalWords(),
			an.Perf/1e3, an.Ratio, paperCol)
		if sp.Run.Accuracy == 1 {
			organic = rep
		}
	}
	if organic == nil {
		return
	}
	fmt.Println("\nper-cycle cost breakdown at p=1 (compare Table 2 row 1):")
	for _, c := range vclock.Categories() {
		fmt.Printf("  %-9s %v/cycle\n", c, organic.Ledger.PerCycle(c, organic.Cycles))
	}
}

// runSpec compiles and runs one spec in-process, exiting on error.
func runSpec(sp *coemu.Spec) *coemu.Report {
	d, cfg, err := sp.Compile()
	if err != nil {
		fatal(err)
	}
	rep, err := coemu.Run(d, cfg, sp.Run.Cycles)
	if err != nil {
		fatal(err)
	}
	return rep
}

// writeCSVs writes the analytic Table 2 (published values alongside)
// and all four Figure 4 series as CSV files for plotting.
func writeCSVs(dir string) error {
	var table2, figure4 strings.Builder
	fmt.Fprintln(&table2, "p,tsim,tacc,tstore,trestore,tch,perf,ratio,paper_perf,paper_ratio")
	for _, r := range perfmodel.Table2() {
		pp := paperTable2[r.P]
		fmt.Fprintf(&table2, "%.3f,%.3e,%.3e,%.3e,%.3e,%.3e,%.1f,%.3f,%.1f,%.3f\n",
			r.P, r.Tsim, r.Tacc, r.Tstore, r.Trestore, r.Tch, r.Perf, r.Ratio, pp[0], pp[1])
	}
	series := perfmodel.Figure4()
	fmt.Fprint(&figure4, "p")
	for _, s := range series {
		fmt.Fprintf(&figure4, ",%q,%q_conventional", s.Config.Label(), s.Config.Label())
	}
	fmt.Fprintln(&figure4)
	for i, p := range perfmodel.Figure4Accuracies {
		fmt.Fprintf(&figure4, "%.3f", p)
		for _, s := range series {
			fmt.Fprintf(&figure4, ",%.1f,%.1f", s.Rows[i].Perf, s.Conventional)
		}
		fmt.Fprintln(&figure4)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		body *strings.Builder
	}{{"table2.csv", &table2}, {"figure4.csv", &figure4}} {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, []byte(f.body.String()), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
