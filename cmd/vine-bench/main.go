// Command vine-bench regenerates the figures of the paper's evaluation
// (§4) from simulated runs of the production scheduling policy.
//
// Usage:
//
//	vine-bench [-scale F] [-csv DIR] [all|fig9|fig10|fig11|fig11-ablation|
//	           fig12-topeft|fig12-colmena|fig12-bgd|fig13] ...
//
// -scale 1.0 runs at the paper's task and worker counts (the default 0.2
// preserves every qualitative shape and runs in seconds); a scale outside
// (0, 1] is a usage error. With -csv the
// underlying series of each figure are written as CSV files for plotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"taskvine/internal/experiments"
)

var runners = map[string]func(experiments.Scale) experiments.Report{
	"fig9":               experiments.Fig9,
	"fig10":              experiments.Fig10,
	"fig11":              experiments.Fig11,
	"fig11-ablation":     experiments.Fig11Ablation,
	"fig12-topeft":       experiments.Fig12TopEFT,
	"fig12-colmena":      experiments.Fig12Colmena,
	"fig12-bgd":          experiments.Fig12BGD,
	"fig13":              experiments.Fig13,
	"ablation-placement": experiments.AblationPlacement,
	"fig9-real":          experiments.Fig9Real,
}

var order = []string{
	"fig9", "fig10", "fig11", "fig11-ablation",
	"fig12-topeft", "fig12-colmena", "fig12-bgd", "fig13", "ablation-placement",
	"fig9-real",
}

func main() {
	scale := flag.Float64("scale", 0.2, "fraction of the paper's task/worker counts (1.0 = paper scale)")
	csvDir := flag.String("csv", "", "directory to write per-figure series CSVs")
	flag.Parse()
	if err := checkScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "vine-bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	targets := flag.Args()
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = order
	}
	failed := 0
	for _, name := range targets {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "vine-bench: unknown figure %q (have: %s, all)\n",
				name, strings.Join(order, ", "))
			os.Exit(2)
		}
		rep := run(experiments.Scale(*scale))
		fmt.Println(rep)
		if !rep.OK {
			failed++
		}
		if *csvDir != "" {
			if err := writeSeries(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "vine-bench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "vine-bench: %d figure(s) did not reproduce the paper's shape\n", failed)
		os.Exit(1)
	}
}

// checkScale rejects scales the figures cannot honour: the experiments
// cap every count at the paper's, so a scale above 1 would silently run
// at 1.
func checkScale(s float64) error {
	if !(s > 0 && s <= 1) {
		return fmt.Errorf("-scale %g outside (0, 1]", s)
	}
	return nil
}

func writeSeries(dir string, rep experiments.Report) error {
	if len(rep.Series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range rep.Series {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", rep.ID, s.Name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "x,y")
		for i := range s.X {
			fmt.Fprintf(f, "%g,%g\n", s.X[i], s.Y[i])
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
