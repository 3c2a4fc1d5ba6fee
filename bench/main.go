// Command bench is the repository's benchmark: four named workloads over
// the zero-latency sim, loopback TCP and the WAL, each reporting the
// end-to-end numbers a caller of Store.Run would see (--trace 0) or a
// per-layer attribution (--trace 1). See README.md in this directory.
//
//	bash bench/run.sh --workload tcp_read95 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --repeat 10 --seed 100 --save a.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	save     string
	compare  bool
	smoke    bool
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (with -repeat: empty runs all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs; -repeat uses seed, seed+1, ...")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured part of a run")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced window, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run each workload this many times and print median, quartiles and spread/bound")
	flag.StringVar(&o.save, "save", "", "with -repeat: also write the runs to this JSON file, for -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two -save files given as arguments: A.json B.json")
	flag.BoolVar(&o.smoke, "smoke", false, "64 keys, short warm-up and probes: a functional check, not a measurement")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	switch {
	case o.manifest:
		b, err := manifestJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files: A.json B.json")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	c := newConfig(o.seed, o.seconds, o.smoke, os.Stdout)
	defer os.RemoveAll(c.scratch)
	if o.repeat > 0 {
		return repeatRuns(c, o.workload, o.repeat, o.save)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	res, err := runOnce(w, c, o.trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("workload %s: run was not correct (failures above 1%%, a lost acknowledged write, or a checker violation)", w.name)
	}
	return nil
}

func runOnce(w workload, c config, trace int) (*result, error) {
	switch trace {
	case 0:
		return runTimed(w, c)
	case 1:
		return runTraced(w, c)
	}
	return nil, fmt.Errorf("-trace must be 0 or 1")
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// newConfig fixes everything about a run that is not its workload. All
// files go under the working directory: WAL directories under
// .bench_build/ (removed when the process ends), traces under bench/out/.
func newConfig(seed int64, seconds float64, smoke bool, log io.Writer) config {
	c := config{
		seed: seed, seconds: seconds, keys: 1024,
		clients:     min(runtime.NumCPU(), 2),
		warmup:      1500 * time.Millisecond,
		setups:      3,
		probeBudget: 400 * time.Millisecond,
		scratch:     filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		outDir:      filepath.Join("bench", "out"),
		log:         log,
	}
	if smoke {
		c.keys, c.warmup, c.probeBudget = 64, 100*time.Millisecond, 40*time.Millisecond
	}
	return c
}
