package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// childConfig is one pass of one workload, run in a process of its own
// so that its peak RSS and CPU time are the workload's alone.
type childConfig struct {
	Workload  string
	Seed      uint64
	Seconds   float64
	MinOps    int
	SetupReps int
	Traced    bool
	Profile   string // CPU profile path (traced)
	Chrome    string // span trace path (traced)
}

func (c childConfig) args() []string {
	return []string{"child",
		"-workload", c.Workload,
		"-seed", fmt.Sprint(c.Seed),
		"-seconds", fmt.Sprint(c.Seconds),
		"-min-ops", fmt.Sprint(c.MinOps),
		"-setup-reps", fmt.Sprint(c.SetupReps),
		"-traced=" + fmt.Sprint(c.Traced),
		"-profile", c.Profile,
		"-chrome", c.Chrome,
	}
}

// childReport is what a pass measured, sent to the parent as JSON.
type childReport struct {
	SetupS    []float64            // each set-up plus its warm-up op
	Ops       []opSample           // each timed op that succeeded
	Runs      []run                // the runs those ops made
	Attempted int                  // timed ops attempted
	Failed    int                  // timed ops failed
	Failures  []string             // the first few failure messages
	CPUSec    float64              // process CPU (user+sys) over the timed ops
	Sim       map[string]float64   // the warm-up op's simulated statistics
	Counts    map[string]float64   // per-layer counters over the timed ops
	Spans     map[string][]float64 // span durations in ms, by name (traced)
	Runtime   runtimeStats
}

// opSample is one timed op: its place in the workload's cycle, its wall
// and process CPU time, and the virtual seconds its runs simulated.
type opSample struct {
	ID  int     `json:"id"`
	Ms  float64 `json:"ms"`
	CPU float64 `json:"cpu_s"`
	VS  float64 `json:"vs"`
}

type runtimeStats struct {
	CPUSec, GCCPUSec, AllocBytes, GCCycles float64
}

var runtimeSamples = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeStats{CPUSec: v(0), GCCPUSec: v(1), AllocBytes: v(2), GCCycles: v(3)}
}

func (a runtimeStats) minus(b runtimeStats) runtimeStats {
	return runtimeStats{a.CPUSec - b.CPUSec, a.GCCPUSec - b.GCCPUSec, a.AllocBytes - b.AllocBytes, a.GCCycles - b.GCCycles}
}

// processCPU is this process's user plus system CPU time, all threads.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func childMain(args []string, stdout, stderr io.Writer) int {
	var c childConfig
	fs := flag.NewFlagSet("lvmmbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.Workload, "workload", "", "")
	fs.Uint64Var(&c.Seed, "seed", 1, "")
	fs.Float64Var(&c.Seconds, "seconds", 10, "")
	fs.IntVar(&c.MinOps, "min-ops", 1, "")
	fs.IntVar(&c.SetupReps, "setup-reps", 1, "")
	fs.BoolVar(&c.Traced, "traced", false, "")
	fs.StringVar(&c.Profile, "profile", "", "")
	fs.StringVar(&c.Chrome, "chrome", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := runChild(c)
	if err != nil {
		fmt.Fprintln(stderr, "lvmmbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(stderr, "lvmmbench:", err)
		return 1
	}
	return 0
}

// runChild sets the workload up SetupReps times (each set-up followed by
// its untimed warm-up op), then times ops until Seconds have passed and
// at least MinOps were made. A traced pass also records spans and a CPU
// profile over the timed ops.
func runChild(c childConfig) (*childReport, error) {
	w, ok := Lookup(c.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.Workload)
	}
	var tr *tracer
	if c.Traced {
		tr = newTracer()
	}
	rep := &childReport{Counts: map[string]float64{}}
	var s session
	for r := 0; r < max(c.SetupReps, 1); r++ {
		if s != nil {
			s.close()
		}
		done := tr.begin("warmup", 0, -1)
		t0 := time.Now()
		var err error
		if s, err = w.start(c.Seed, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		res, err := s.op(-1)
		if err == nil {
			err = checkSim(w.Name, c.Seed, res.sim, nil)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s warm-up op: %w", w.Name, err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		rep.Sim = res.sim
		done()
	}
	defer s.close()

	runtime.GC()
	var prof *os.File
	if c.Traced {
		var err error
		if prof, err = os.Create(c.Profile); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	cpu0, rt0 := processCPU(), readRuntime()
	start := time.Now()
	for i := 0; i < c.MinOps || time.Since(start).Seconds() < c.Seconds; i++ {
		done := tr.begin("op", 0, i)
		t0, c0 := time.Now(), processCPU()
		res, err := s.op(i)
		d, cpu := ms(time.Since(t0)), processCPU()-c0
		done()
		rep.Attempted++
		if err == nil {
			err = checkSim(w.Name, c.Seed, res.sim, rep.Sim)
		}
		if err != nil {
			rep.Failed++
			if len(rep.Failures) < 5 {
				rep.Failures = append(rep.Failures, fmt.Sprintf("op %d: %v", i, err))
			}
			continue
		}
		rep.Ops = append(rep.Ops, opSample{ID: i % w.Cycle, Ms: d, CPU: cpu, VS: totalVS(res.runs)})
		rep.Runs = append(rep.Runs, res.runs...)
		for k, v := range res.counts {
			if maxKeys[k] {
				rep.Counts[k] = max(rep.Counts[k], v)
			} else {
				rep.Counts[k] += v
			}
		}
	}
	rep.CPUSec = processCPU() - cpu0
	rep.Runtime = readRuntime().minus(rt0)
	if c.Traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		rep.Spans = tr.durations()
		if err := tr.writeChrome(c.Chrome, w.Name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
