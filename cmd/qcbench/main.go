// Command qcbench regenerates the evaluation tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	qcbench -exp all
//	qcbench -exp figures|model|messages|availability|latency|nesting|faults|read-repair
//	qcbench -exp messages -txns 200
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run")
		txns  = flag.Int("txns", 100, "transactions per experiment cell")
		seeds = flag.Int("seeds", 25, "seeds per model check")
	)
	flag.Parse()
	if err := run(*exp, *txns, *seeds); err != nil {
		fmt.Fprintln(os.Stderr, "qcbench:", err)
		os.Exit(1)
	}
}

func run(exp string, txns, seeds int) error {
	w := os.Stdout
	section := func(name string) { fmt.Fprintf(w, "\n== %s ==\n", name) }
	all := exp == "all"
	if all || exp == "figures" {
		section("F1/F2 figures")
		if err := experiments.Figures(w); err != nil {
			return err
		}
	}
	if all || exp == "model" {
		section("E1-E4 mechanized theorem checks")
		if err := experiments.ModelChecks(w, seeds); err != nil {
			return err
		}
	}
	if all || exp == "messages" {
		section("E5 messages per transaction")
		if err := experiments.Messages(w, txns); err != nil {
			return err
		}
	}
	if all || exp == "availability" {
		section("E6 availability (exact)")
		if err := experiments.Availability(w); err != nil {
			return err
		}
	}
	if all || exp == "latency" {
		section("E7a latency vs quorum size")
		if err := experiments.Latency(w, txns); err != nil {
			return err
		}
	}
	if all || exp == "nesting" {
		section("E7b nesting depth")
		if err := experiments.Nesting(w, txns); err != nil {
			return err
		}
	}
	if all || exp == "faults" {
		section("E8 crash tolerance and reconfiguration")
		if err := experiments.Faults(w, txns); err != nil {
			return err
		}
	}
	if all || exp == "read-repair" {
		section("E9 read repair")
		if err := experiments.ReadRepair(w, 40); err != nil {
			return err
		}
	}
	return nil
}
