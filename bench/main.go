package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
)

// Run is one pass of one workload: what the benchmark prints, writes to
// <workload>-seed<N>.run.json, and compare reads.
type Run struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Pass      string             `json:"pass"` // "untraced" or "traced"
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Sim       map[string]float64 `json:"sim"`
	Metrics   map[string]Metric  `json:"metrics"`
}

// Main is the lvmmbench command: run the workloads (the default),
// compare two sets of runs, or run one pass as a child process.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:], stdout, stderr)
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		}
	}
	return runMain(args, stdout, stderr)
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lvmmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lvmmbench [flags]            run the workloads, each in its own process")
		fmt.Fprintln(stderr, "       lvmmbench compare [-json F] A B  compare two sets of runs (directories or .run.json files)")
		fs.PrintDefaults()
	}
	name := fs.String("workload", "", "run only this workload (default: all five, one after another)")
	seed := fs.Uint64("seed", 1, "seed of the disk content and of the time-travel op sequence")
	seconds := fs.Float64("seconds", 10, "timed seconds per pass; a pass still makes its workload's minimum op count")
	trace := fs.Int("trace", -1, "0: untraced pass only (end-to-end metrics); 1: traced pass (per-layer metrics); -1: both")
	quick := fs.Bool("quick", false, "smoke test: one set-up and one timed op per pass")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for run records, CPU profiles and span traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 {
		fs.Usage()
		return 2
	}
	ws := Workloads
	if *name != "" {
		w, ok := Lookup(*name)
		if !ok {
			fmt.Fprintf(stderr, "lvmmbench: unknown workload %q\n", *name)
			return 2
		}
		ws = []*Workload{w}
	}
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lvmmbench:", err)
		return 1
	}

	var all []Run
	for _, w := range ws {
		runs, err := measure(exe, w, *seed, *seconds, *trace, *quick, *out, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "lvmmbench:", err)
			return 1
		}
		for _, r := range runs {
			printRun(stdout, r)
		}
		all = append(all, runs...)
	}
	return printSummary(stdout, stderr, all, len(ws) > 1)
}

// setupReps is how many times a pass sets its workload up; setup_s is
// the median.
const setupReps = 5

// measure runs one workload's passes, each in a child process: the
// untraced pass always (the end-to-end metrics, and the reference the
// traced pass's overhead is measured against), then the traced pass
// unless trace is 0.
func measure(exe string, w *Workload, seed uint64, seconds float64, trace int, quick bool, out string, stderr io.Writer) ([]Run, error) {
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.Name, seed))
	c := childConfig{Workload: w.Name, Seed: seed, Seconds: seconds, MinOps: w.Cycle, SetupReps: setupReps}
	if quick {
		c.Seconds, c.MinOps, c.SetupReps = 0, 1, 1
	}
	untraced, rss, err := spawn(exe, c, stderr)
	if err != nil {
		return nil, err
	}
	var runs []Run
	if trace != 1 {
		runs = append(runs, newRun(w, seed, "untraced", untraced, endToEnd(untraced)))
	}
	if trace != 0 {
		c.Traced, c.SetupReps = true, 1
		c.Profile, c.Chrome = base+".cpu.pprof", base+".trace.json"
		traced, _, err := spawn(exe, c, stderr)
		if err != nil {
			return nil, err
		}
		stacks, err := profileTraces(c.Profile)
		if err != nil {
			return nil, err
		}
		runs = append(runs, newRun(w, seed, "traced", traced, perLayer(traced, untraced, rss, layerMs(stacks))))
	}
	b, err := json.MarshalIndent(runs, "", "  ")
	if err == nil {
		err = os.WriteFile(base+".run.json", b, 0o644)
	}
	return runs, err
}

// spawn runs one pass in a child process and returns its report and the
// child's peak resident set in KiB (ru_maxrss, the kernel's VmHWM).
func spawn(exe string, c childConfig, stderr io.Writer) (*childReport, int64, error) {
	cmd := exec.Command(exe, c.args()...)
	cmd.Stderr = stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s pass of %s: %w", passName(c.Traced), c.Workload, err)
	}
	var rep childReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, 0, fmt.Errorf("%s pass of %s: bad report: %w", passName(c.Traced), c.Workload, err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return &rep, rss, nil
}

func passName(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

func newRun(w *Workload, seed uint64, pass string, r *childReport, m map[string]Metric) Run {
	return Run{Workload: w.Name, Seed: seed, Pass: pass, Attempted: r.Attempted, Failed: r.Failed,
		Failures: r.Failures, Sim: r.Sim, Metrics: m}
}

// defsOf lists a pass's metric definitions in report order.
func defsOf(pass string) []MetricDef {
	if pass == "traced" {
		return PerLayer
	}
	return EndToEnd
}

func printRun(w io.Writer, r Run) {
	fmt.Fprintf(w, "# %s seed %d, %s pass: %d ops attempted, %d failed\n", r.Workload, r.Seed, r.Pass, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "#   %s\n", f)
	}
	for _, d := range defsOf(r.Pass) {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-12s %-30s %16.6g %-10s n=%d\n", r.Workload, d.Name, m.Value, m.Unit, m.N)
	}
}

// printSummary prints the result line: one JSON object with whether
// every op was correct, the ops attempted and failed, and every metric
// (prefixed "<workload>/" when several workloads ran).
func printSummary(stdout, stderr io.Writer, runs []Run, prefix bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	s := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range runs {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, d := range defsOf(r.Pass) {
			k := d.Name
			if prefix {
				k = r.Workload + "/" + k
			}
			s.Metrics[k] = value{r.Metrics[d.Name].Value, d.Unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(stderr, "lvmmbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
