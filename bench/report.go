package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// savedRuns is what -repeat -save writes and -compare reads: for every
// workload, every end-to-end metric's value in each run.
type savedRuns struct {
	Seed    int64                           `json:"seed"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string]map[string][]float64 `json:"runs"`
}

// repeatRuns runs the untraced window of each workload n times, with seeds
// c.seed, c.seed+1, ..., and prints per (workload, end-to-end metric) the
// median, the quartiles, and the spread (interquartile distance over the
// median) against the metric's bound. A spread above a third of the bound
// leaves too little room to see a regression of the bound's size.
func repeatRuns(c config, only string, n int, save string) error {
	list := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %v)", only, workloadNames())
		}
		list = []workload{w}
	}
	out := c.log
	saved := savedRuns{Seed: c.seed, Seconds: c.seconds, Runs: map[string]map[string][]float64{}}
	for _, w := range list {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			rc := c
			rc.seed, rc.log = c.seed+int64(i), io.Discard
			res, err := runTimed(w, rc)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("workload %s seed %d: run was not correct (%d of %d failed)", w.name, rc.seed, res.Failed, res.Attempted)
			}
			fmt.Fprintf(out, "%s seed %d: attempted %d failed %d", w.name, rc.seed, res.Attempted, res.Failed)
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				vals[d.name] = append(vals[d.name], v)
				fmt.Fprintf(out, "  %s %.4f", d.name, v)
			}
			fmt.Fprintln(out)
		}
		saved.Runs[w.name] = vals
	}
	fmt.Fprintf(out, "\n%-18s %-15s %5s %12s %12s %12s %8s %6s %13s\n",
		"workload", "metric", "unit", "q1", "median", "q3", "spread", "bound", "spread/bound")
	for _, w := range list {
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(saved.Runs[w.name][d.name])
			sp := spread(saved.Runs[w.name][d.name])
			fmt.Fprintf(out, "%-18s %-15s %5s %12.4f %12.4f %12.4f %8.4f %6.2f %13.2f\n",
				w.name, d.name, d.unit, q1, q2, q3, sp, d.bound, sp/d.bound)
		}
	}
	if save == "" {
		return nil
	}
	b, err := json.MarshalIndent(saved, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(save, append(b, '\n'), 0o644)
}

func loadRuns(path string) (savedRuns, error) {
	var s savedRuns
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict judges one (workload, metric) pairing of two sets of runs. worse
// is how far B's median is on the wrong side of A's, as a share of A's.
// Where either side's own spread exceeds the bound the pairing is
// unresolved: the runs cannot tell a change of the bound's size from noise.
func verdict(d metricDef, a, b []float64) (worse float64, word string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread(a) > d.bound || spread(b) > d.bound:
		return worse, "unresolved"
	case worse > d.bound:
		return worse, "regressed"
	case worse < -d.bound:
		return worse, "improved"
	}
	return worse, "within bound"
}

// compareFiles prints one row per (workload, end-to-end metric) found in
// both files: the two medians, how much worse B is than A, the bound, and
// the verdict.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(out, "warning: run lengths differ (%.0f s vs %.0f s); the comparison is not like for like\n", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(out, "%-18s %-15s %12s %12s %9s %6s  %s\n", "workload", "metric", "median A", "median B", "B worse", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.Runs[w.name][d.name], b.Runs[w.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, word := verdict(d, va, vb)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(out, "%-18s %-15s %12.4f %12.4f %+8.1f%% %5.0f%%  %s\n",
				w.name, d.name, ma, mb, 100*worse, 100*d.bound, word)
		}
	}
	return nil
}
