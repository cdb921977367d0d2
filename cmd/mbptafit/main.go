// Command mbptafit fits the MBPTA/EVT pipeline to execution-time samples
// and prints the pWCET curve with diagnostics. Samples come either from a
// file (one number per line, '#' comments allowed) or from a fresh
// maximum-contention measurement campaign on the simulator.
//
// Usage:
//
//	mbptafit -file times.txt -block 20
//	mbptafit -collect matrix -runs 300 -credit cba
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"creditbus"
	"creditbus/internal/mbpta"
	"creditbus/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mbptafit:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mbptafit", flag.ContinueOnError)
	var (
		file    = fs.String("file", "", "sample file (one execution time per line)")
		collect = fs.String("collect", "", "collect fresh samples for this workload instead")
		runs    = fs.Int("runs", 300, "runs for -collect")
		credit  = fs.String("credit", "off", "CBA variant for -collect: off, cba")
		block   = fs.Int("block", 0, "block-maxima size (0 = samples/20, clamped to [2,20])")
		seed    = fs.Uint64("seed", 20170327, "base seed for -collect")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var samples []float64
	var err error
	switch {
	case *file != "" && *collect != "":
		return fmt.Errorf("use either -file or -collect, not both")
	case *file != "":
		samples, err = readSamples(*file)
	case *collect != "":
		samples, err = collectSamples(*collect, *credit, *runs, *seed)
	default:
		return fmt.Errorf("need -file or -collect; see -h")
	}
	if err != nil {
		return err
	}

	b := *block
	if b == 0 {
		b = mbpta.BlockSize(len(samples))
	}
	an, err := creditbus.AnalyzeWCET(samples, b)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "samples=%d block=%d maxima=%d\n", len(samples), b, len(an.Maxima))
	fmt.Fprintf(stdout, "gumbel fit: mu=%.1f sigma=%.1f\n", an.Fit.Mu, an.Fit.Sigma)
	fmt.Fprintf(stdout, "iid checks: lag1=%.4f (pass=%v)  ks=%.4f (pass=%v)\n",
		an.IID.Lag1, an.IID.Lag1Pass, an.IID.KS, an.IID.KSPass)
	if !an.IID.Pass() {
		fmt.Fprintln(stdout, "warning: samples fail the exchangeability diagnostics; the fit is not trustworthy")
	}
	t := report.NewTable("pWCET curve", "exceedance prob/run", "bound (cycles)")
	for _, pt := range an.Curve(12) {
		t.AddRow(fmt.Sprintf("%.0e", pt.Prob), fmt.Sprintf("%.0f", pt.WCET))
	}
	return t.Fprint(stdout)
}

func readSamples(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func collectSamples(name, credit string, runs int, seed uint64) ([]float64, error) {
	cfg := creditbus.DefaultConfig()
	switch credit {
	case "off":
	case "cba":
		cfg.Credit.Kind = creditbus.CreditCBA
	default:
		return nil, fmt.Errorf("unknown credit variant %q", credit)
	}
	prog, err := creditbus.BuildWorkload(name, 1)
	if err != nil {
		return nil, err
	}
	return creditbus.CollectMaxContention(cfg, prog, runs, seed)
}
