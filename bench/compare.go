package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
)

// Side summarizes one set's values of one metric on one workload: the
// median and quartiles over its runs (one run per seed) and the spread,
// the distance between the quartiles as a share of the median.
type Side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

// Row compares one (end-to-end metric, workload) pair across two sets.
type Row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	A        Side    `json:"a"`
	B        Side    `json:"b"`
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative when B is better).
	Worse float64 `json:"worse"`
	// Verdict is "better" (every B run beats every A run), "regression"
	// (B's median is worse than A's by more than the bound), "unresolved"
	// (either set's spread is wider than the bound, so within-bound
	// medians do not show the metric unchanged), or "ok".
	Verdict string `json:"verdict"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lvmmbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "", "also write the rows and problems to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: lvmmbench compare [-json FILE] A B")
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	var b []Run
	if err == nil {
		b, err = loadRuns(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(stderr, "lvmmbench compare:", err)
		return 1
	}
	rows, problems := compareSets(a, b)
	printRows(stdout, rows, problems)
	if *jsonOut != "" {
		out, err := json.MarshalIndent(map[string]any{"rows": rows, "problems": problems}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "lvmmbench compare:", err)
			return 1
		}
	}
	if !accepted(rows, problems) {
		return 1
	}
	return 0
}

// loadRuns reads a set of runs: a .run.json file, or every .run.json
// file in a directory.
func loadRuns(path string) ([]Run, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.run.json")); err != nil {
			return nil, err
		}
	}
	var runs []Run
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs []Run
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs = append(runs, rs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// compareSets compares the untraced runs of two sets for every
// (end-to-end metric, workload) pair, and lists the problems that make
// the sets disagree outright: failed ops, and a workload and seed whose
// simulated statistics differ between the sets.
func compareSets(a, b []Run) ([]Row, []string) {
	problems := []string{}
	sims := map[string]map[string]float64{}
	for _, r := range a {
		if r.Pass == "untraced" {
			sims[fmt.Sprintf("%s seed %d", r.Workload, r.Seed)] = r.Sim
		}
	}
	for _, set := range [][]Run{a, b} {
		for _, r := range set {
			if r.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s seed %d %s: %d of %d ops failed", r.Workload, r.Seed, r.Pass, r.Failed, r.Attempted))
			}
		}
	}
	for _, r := range b {
		k := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if ref, ok := sims[k]; ok && r.Pass == "untraced" && !maps.Equal(ref, r.Sim) {
			problems = append(problems, k+": simulated statistics differ between the sets")
		}
	}

	var rows []Row
	for _, w := range Workloads {
		for _, d := range EndToEnd {
			va, vb := values(a, w.Name, d.Name), values(b, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows = append(rows, compareValues(w.Name, d, va, vb))
		}
	}
	return rows, problems
}

func values(runs []Run, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.Workload == workload && r.Pass == "untraced" {
			if m, ok := r.Metrics[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

func side(vs []float64) Side {
	q1, q2, q3 := quartiles(vs)
	return Side{Median: q2, Q1: q1, Q3: q3, N: len(vs), Spread: ratio(q3-q1, q2)}
}

func compareValues(workload string, d MetricDef, va, vb []float64) Row {
	r := Row{Workload: workload, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, A: side(va), B: side(vb)}
	sign := 1.0 // lower is better: a larger B is worse
	if d.Better == "higher" {
		sign = -1
	}
	r.Worse = sign * ratio(r.B.Median-r.A.Median, r.A.Median)
	sa, sb := sorted(va), sorted(vb)
	bBeatsA := sb[len(sb)-1] < sa[0]
	if d.Better == "higher" {
		bBeatsA = sb[0] > sa[len(sa)-1]
	}
	switch {
	case bBeatsA:
		r.Verdict = "better"
	case r.Worse > d.Bound:
		r.Verdict = "regression"
	case r.A.Spread > d.Bound || r.B.Spread > d.Bound:
		r.Verdict = "unresolved"
	default:
		r.Verdict = "ok"
	}
	return r
}

// accepted reports whether B holds against A: no problems, and no pair
// whose median got worse by more than its bound.
func accepted(rows []Row, problems []string) bool {
	for _, r := range rows {
		if r.Verdict == "regression" {
			return false
		}
	}
	return len(problems) == 0
}

func printRows(w io.Writer, rows []Row, problems []string) {
	fmt.Fprintf(w, "%-12s %-13s %-36s %-36s %6s %7s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "bound", "worse", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-13s %-36s %-36s %5.0f%% %+6.1f%%  %s\n", r.Workload, r.Metric,
			fmtSide(r.A, r.Unit), fmtSide(r.B, r.Unit), 100*r.Bound, 100*r.Worse, r.Verdict)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(w, "problem:", p)
	}
}

func fmtSide(s Side, unit string) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s n=%d", s.Median, s.Q1, s.Q3, unit, s.N)
}
