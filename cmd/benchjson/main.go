// Command benchjson runs the repository's engineering benchmarks with a
// small self-contained harness and emits a machine-readable JSON artifact
// (BENCH_<date>.json by default) so the performance trajectory of the
// interpreter hot path is recorded in the repo rather than in someone's
// scrollback.
//
// Usage:
//
//	go run ./cmd/benchjson                 # ~1 s per benchmark, writes BENCH_<date>.json
//	go run ./cmd/benchjson -quick -out -   # single iteration each, JSON to stdout (CI smoke)
//	go run ./cmd/benchjson -note "seed"    # annotate the artifact
//	go run ./cmd/benchjson -compare BENCH_x.json -tolerance 15
//	                                       # regression gate: exit 1 when a
//	                                       # gated benchmark's ns/op regressed
//	                                       # more than 15% vs the baseline
//
// The benchmark set mirrors bench_test.go's engineering benchmarks
// (BenchmarkInterpreter, BenchmarkTrapRoundTrip, the fused-dispatch
// BenchmarkTrapRoundTripBurst, the streaming-trace BenchmarkRecordStream,
// the armed-breakpoint BenchmarkArmedObserver, and the lazy-reader
// BenchmarkReplaySeek) plus a forced-slow-path interpreter variant, so
// one artifact carries both sides of the predecoded-engine before/after
// comparison. Paper-figure benchmarks stay
// in `go test -bench`; this tool is only for the host-side hot-path
// numbers that DESIGN.md's benchmark table tracks.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"lvmm"
	"lvmm/internal/asm"
	"lvmm/internal/cpu"
	"lvmm/internal/experiment"
	"lvmm/internal/machine"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// Result is one benchmark measurement.
type Result struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the JSON document benchjson emits.
type Artifact struct {
	Date       string   `json:"date"`
	Note       string   `json:"note,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Quick      bool     `json:"quick,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// bench runs body repeatedly until the accumulated run time reaches target
// (testing.B-style doubling), or exactly once when target is zero. body
// receives the iteration count and returns a map of custom metrics; the
// metrics of the final (longest) run are kept.
func bench(name string, target time.Duration, body func(n int) map[string]float64) Result {
	n := 1
	for {
		// Settle the heap so each round starts from the same GC state:
		// without this, garbage left by earlier benchmarks in the same
		// process bleeds into later measurements (observed as ~15%
		// run-position-dependent drift in RecordStream).
		runtime.GC()
		start := time.Now()
		metrics := body(n)
		elapsed := time.Since(start)
		if target == 0 || elapsed >= target || n >= 1<<24 {
			return Result{
				Name:       name,
				Iterations: n,
				NsPerOp:    float64(elapsed.Nanoseconds()) / float64(n),
				Metrics:    metrics,
			}
		}
		// Aim past the target the way testing.B does: scale by the
		// shortfall, capped at 100x growth per round.
		grow := int64(n)
		if elapsed > 0 {
			grow = int64(float64(n) * float64(target) / float64(elapsed))
		}
		if grow > int64(n)*100 {
			grow = int64(n) * 100
		}
		if grow <= int64(n) {
			grow = int64(n) + 1
		}
		n = int(grow)
	}
}

// interpreterSource is the tight guest loop BenchmarkInterpreter times:
// 2,000,001 retired instructions per run.
const interpreterSource = `
        .org 0x1000
        _start:
            li   r1, 0
            li   r2, 1000000
        loop:
            addi r1, r1, 1
            bne  r1, r2, loop
            hlt
    `

const interpreterInstrs = 2_000_001

// runInterpreter executes the tight loop n times, optionally with the
// CPU's force-slow knob set, which disqualifies the machine from predecoded
// bursts and forces the per-instruction slow path (the pre-optimization
// engine).
func runInterpreter(n int, forceSlow bool) map[string]float64 {
	img := asm.MustAssemble(interpreterSource)
	var sb cpu.SBStats
	start := time.Now()
	for i := 0; i < n; i++ {
		m := machine.New(machine.Config{ResetPC: img.Entry})
		if err := m.LoadImage(img); err != nil {
			fatal(err)
		}
		m.CPU.Reset(img.Entry)
		if forceSlow {
			m.CPU.ForceSlowEngine(true)
		}
		m.Run(20_000_000)
		if m.CPU.Regs[1] != 1000000 {
			fatal(fmt.Errorf("interpreter loop did not finish: r1=%d", m.CPU.Regs[1]))
		}
		s := m.CPU.SBStats()
		sb.Built += s.Built
		sb.Runs += s.Runs
		sb.ChainHits += s.ChainHits
		sb.ChainMisses += s.ChainMisses
		sb.Severed += s.Severed
	}
	return map[string]float64{
		"guest_instr_per_s": float64(interpreterInstrs*n) / time.Since(start).Seconds(),
		"sb_built_per_op":   float64(sb.Built) / float64(n),
		"sb_runs_per_op":    float64(sb.Runs) / float64(n),
		"sb_chain_hit_pct":  chainHitPct(sb),
	}
}

// chainHitPct is the share of superblock taken exits that stayed chained.
func chainHitPct(s cpu.SBStats) float64 {
	if total := s.ChainHits + s.ChainMisses; total > 0 {
		return 100 * float64(s.ChainHits) / float64(total)
	}
	return 0
}

// runTrapRoundTrip measures the guest→monitor→guest crossing (CLI
// emulation under the lightweight VMM), n single steps.
func runTrapRoundTrip(n int) map[string]float64 {
	img := asm.MustAssemble(`
        .org 0x1000
        _start:
        loop:
            cli
            sti
            b loop
    `)
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := v.Launch(img.Entry); err != nil {
		fatal(err)
	}
	start := v.Stats.Traps
	for i := 0; i < n; i++ {
		m.StepOne()
	}
	return map[string]float64{
		"traps_per_op": float64(v.Stats.Traps-start) / float64(n),
	}
}

// runTrapRoundTripBurst measures the same crossing driven through
// machine.Run, where the fused one-crossing dispatch keeps the guest on
// the predecoded engine across monitor-handled traps.
func runTrapRoundTripBurst(n int) map[string]float64 {
	img := asm.MustAssemble(`
        .org 0x1000
        _start:
        loop:
            cli
            sti
            b loop
    `)
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := v.Launch(img.Entry); err != nil {
		fatal(err)
	}
	const sliceCycles = 200_000 // ~20 crossings per op
	start := v.Stats.Traps
	hostStart := time.Now()
	for i := 0; i < n; i++ {
		m.Run(m.Clock() + sliceCycles)
	}
	elapsed := time.Since(hostStart)
	traps := v.Stats.Traps - start
	out := map[string]float64{
		"traps_per_op": float64(traps) / float64(n),
	}
	if traps > 0 {
		out["ns_per_trap"] = float64(elapsed.Nanoseconds()) / float64(traps)
	}
	return out
}

// runBurstReentry measures the burst re-entry preamble, mirroring
// bench_test.go's BenchmarkBurstReentry: one machine.Run call per op over
// a slice of virtual time short enough that the guest work inside it (a
// batched superblock self-loop) is small, so ns/op tracks the cost of
// getting from the Run entry point back onto the predecoded engine.
func runBurstReentry(n int) map[string]float64 {
	img := asm.MustAssemble(`
        .org 0x1000
        _start:
        loop:
            addi r1, r1, 1
            b    loop
    `)
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		fatal(err)
	}
	m.CPU.Reset(img.Entry)
	const sliceCycles = 64
	startInstr := m.CPU.Stat.Instructions
	for i := 0; i < n; i++ {
		m.Run(m.Clock() + sliceCycles)
	}
	s := m.CPU.SBStats()
	return map[string]float64{
		"instr_per_op":   float64(m.CPU.Stat.Instructions-startInstr) / float64(n),
		"sb_runs_per_op": float64(s.Runs) / float64(n),
	}
}

// runRecordStream measures the streaming v3 recorder on the standard
// workload (100 ms lightweight-VMM run per op, segments flushed to a
// discarding sink). Gated (see gatedBenchmarks).
func runRecordStream(n int) map[string]float64 {
	var out map[string]float64
	for i := 0; i < n; i++ {
		w := lvmm.WorkloadDefaults(100)
		w.Seconds = 0.1
		target, err := lvmm.NewStreamingTarget(lvmm.Lightweight, w)
		if err != nil {
			fatal(err)
		}
		rec, err := target.RecordStream(io.Discard, lvmm.RecordOptions{SnapshotInterval: 20_000_000})
		if err != nil {
			fatal(err)
		}
		if _, err := target.Run(); err != nil {
			fatal(err)
		}
		stats, err := rec.FinishStream()
		if err != nil {
			fatal(err)
		}
		out = map[string]float64{
			"trace_bytes":    float64(stats.BytesWritten),
			"events":         float64(stats.Events),
			"segments":       float64(stats.Segments),
			"keyframes":      float64(stats.Keyframes),
			"delta_snaps":    float64(stats.Deltas),
			"max_pending_ev": float64(stats.MaxPendingEvents),
		}
		// Recycle the machine's RAM like bench_test.go does: without it
		// every op retires a 64 MB slice to the GC and the measurement
		// drifts with heap growth instead of tracking the recorder.
		target.Release()
	}
	return out
}

// newReplaySeekSession records one streamed run, opens it lazily through
// the seek index with a small LRU budget, and returns a body that seeks
// the replayer to n pseudo-random instructions. The recording is made
// once so the measurement covers only the seek path (checkpoint restore,
// segment faults, forward run). Gated (see gatedBenchmarks), so a seek
// regression in the restore or replay layers fails CI.
func newReplaySeekSession() func(n int) map[string]float64 {
	w := lvmm.WorkloadDefaults(200)
	w.Seconds = 0.1
	target, err := lvmm.NewStreamingTarget(lvmm.Lightweight, w)
	if err != nil {
		fatal(err)
	}
	var buf bytes.Buffer
	rec, err := target.RecordStream(&buf, lvmm.RecordOptions{SnapshotInterval: 10_000_000})
	if err != nil {
		fatal(err)
	}
	if _, err := target.Run(); err != nil {
		fatal(err)
	}
	if _, err := rec.FinishStream(); err != nil {
		fatal(err)
	}
	lt, err := replay.NewLazyTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 1<<20)
	if err != nil {
		fatal(err)
	}
	rt, err := lvmm.ReplaySource(lt)
	if err != nil {
		fatal(err)
	}
	_, endInstr, _, _ := lt.End()
	return func(n int) map[string]float64 {
		rng := uint64(0x9e3779b97f4a7c15) // fixed seed: identical seek sequence every round
		startFaults := lt.Faults()
		for i := 0; i < n; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if err := rt.Replayer().SeekInstr(rng % endInstr); err != nil {
				fatal(err)
			}
		}
		return map[string]float64{
			"segfaults_per_op":   float64(lt.Faults()-startFaults) / float64(n),
			"max_resident_bytes": float64(lt.MaxResidentBytes()),
		}
	}
}

// runArmedObserver runs the Fig 3.1-style lightweight streaming workload
// with a hardware breakpoint armed on a page the kernel never executes.
// Page-granular observer arming keeps this run on the predecoded burst
// engine, so its ns/op sits at the unarmed workload's level; if breakpoint
// arming ever falls back to the per-instruction interpreter again, this
// benchmark slows by several x and the -compare gate catches it.
func runArmedObserver(n int) map[string]float64 {
	var out map[string]float64
	for i := 0; i < n; i++ {
		w := lvmm.WorkloadDefaults(100)
		w.Seconds = 0.1
		target, err := lvmm.NewStreamingTarget(lvmm.Lightweight, w)
		if err != nil {
			fatal(err)
		}
		if err := target.Machine().CPU.SetHWBreak(0, 0xE0000, true); err != nil {
			fatal(err)
		}
		stats, err := target.Run()
		if err != nil {
			fatal(err)
		}
		if !stats.Clean {
			fatal(fmt.Errorf("armed observer run corrupted the stream: %s", stats.ValidateErr))
		}
		if target.Machine().CPU.BurstTicks() == 0 {
			fatal(fmt.Errorf("armed observer run never burst: breakpoint knocked the guest off the fast engine"))
		}
		out = map[string]float64{
			"burst_ticks":  float64(target.Machine().CPU.BurstTicks()),
			"cpu_load_pct": stats.CPULoad * 100,
		}
		target.Release()
	}
	return out
}

// runFig31Point runs the lightweight-VMM saturation point of Figure 3.1,
// the macro benchmark the paper's headline numbers come from.
func runFig31Point(n int) map[string]float64 {
	var last experiment.Point
	for i := 0; i < n; i++ {
		last = experiment.RunPoint(experiment.LightweightVMM,
			experiment.Options{DurationTicks: 40}, 700)
		if last.Error != "" {
			fatal(fmt.Errorf("fig31 point: %s", last.Error))
		}
	}
	return map[string]float64{
		"mbps_achieved": last.AchievedMbps,
		"cpu_load_pct":  last.CPULoad * 100,
		"monitor_pct":   last.MonitorShare * 100,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// gatedBenchmarks are the hot-path benchmarks the -compare regression
// gate enforces: a CI run fails when any of these regresses in ns/op by
// more than the tolerance against the committed baseline artifact.
var gatedBenchmarks = []string{"Interpreter", "TrapRoundTrip", "TrapRoundTripBurst", "BurstReentry", "RecordStream", "ArmedObserver", "ReplaySeek"}

// compareBaseline enforces the regression gate: every gated benchmark in
// the current run must be within tolerance percent of the baseline's
// ns/op, and every gated benchmark must actually be present in the
// current run — a gated benchmark the run no longer carries is a
// failure, not a skip, or deleting the benchmark would green the gate. A
// gated benchmark missing from the *baseline* (the gate list grew before
// the baseline artifact was refreshed) stays a warning-only skip.
// Returns the failures.
func compareBaseline(baseline Artifact, current []Result, tolerance float64) []string {
	base := map[string]Result{}
	for _, r := range baseline.Benchmarks {
		base[r.Name] = r
	}
	var failures []string
	for _, name := range gatedBenchmarks {
		b, okB := base[name]
		var c Result
		okC := false
		for _, r := range current {
			if r.Name == name {
				c, okC = r, true
			}
		}
		if !okC {
			failures = append(failures,
				fmt.Sprintf("%s is gated but missing from the current run", name))
			continue
		}
		if !okB || b.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "compare %-22s skipped: not in baseline (refresh the baseline artifact)\n", name)
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		// Progress goes to stderr so `-out -` keeps stdout valid JSON.
		fmt.Fprintf(os.Stderr, "compare %-22s baseline %12.1f ns/op, current %12.1f ns/op (%+.1f%%)\n",
			name, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
		if ratio > 1+tolerance/100 {
			failures = append(failures,
				fmt.Sprintf("%s regressed %.1f%% (%.1f → %.1f ns/op, tolerance %.0f%%)",
					name, (ratio-1)*100, b.NsPerOp, c.NsPerOp, tolerance))
		}
	}
	return failures
}

func main() {
	quick := flag.Bool("quick", false, "run each benchmark once (CI smoke) instead of ~1s per benchmark")
	out := flag.String("out", "", `output path; "-" for stdout (default BENCH_<date>.json)`)
	note := flag.String("note", "", "free-form annotation stored in the artifact")
	compare := flag.String("compare", "", "baseline BENCH_*.json to gate against (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 15, "allowed ns/op regression percentage for -compare")
	flag.Parse()

	if *compare != "" && *quick {
		fatal(fmt.Errorf("-compare needs real measurements; drop -quick (single-iteration ns/op is dominated by setup)"))
	}

	target := time.Second
	if *quick {
		target = 0
	}

	art := Artifact{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Note:      *note,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     *quick,
	}
	art.Benchmarks = append(art.Benchmarks,
		bench("Interpreter", target, func(n int) map[string]float64 {
			return runInterpreter(n, false)
		}),
		bench("InterpreterSlowPath", target, func(n int) map[string]float64 {
			return runInterpreter(n, true)
		}),
		bench("TrapRoundTrip", target, runTrapRoundTrip),
		bench("TrapRoundTripBurst", target, runTrapRoundTripBurst),
		bench("BurstReentry", target, runBurstReentry),
		bench("RecordStream", target, runRecordStream),
		bench("ArmedObserver", target, runArmedObserver),
		bench("ReplaySeek", target, newReplaySeekSession()),
		bench("Fig31LightweightSaturated", target, runFig31Point),
	)

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", art.Date)
	}
	if path == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", path, len(art.Benchmarks))
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		var baseline Artifact
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *compare, err))
		}
		failures := compareBaseline(baseline, art.Benchmarks, *tolerance)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "regression gate passed against %s (tolerance %.0f%%)\n", *compare, *tolerance)
	}
}
