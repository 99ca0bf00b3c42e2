// Package fleet drives N self-contained simulated machines concurrently
// from one process: a scheduler/aggregator for scenario sweeps and
// regression farms.
//
// Each Scenario describes one machine run — guest workload, platform
// (bare metal or a monitor mode), execution engine, offered load, stop
// condition, and a deterministic content seed. RunOne builds a private
// machine for the scenario, runs it, and distills a Result of purely
// simulated metrics. Because every machine (CPU, bus, devices, virtual
// clock, receiver) is confined to the worker goroutine that runs it, a
// Runner can execute scenarios on a bounded worker pool with bit-identical
// results at any parallelism; the only cross-goroutine communication is
// machine.RequestStop, which the runner uses to propagate context
// cancellation into running guests.
package fleet

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lvmm/internal/fault"
	"lvmm/internal/guest"
	"lvmm/internal/machine"
	"lvmm/internal/perfmodel"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// Platform selects what runs beneath the guest OS.
type Platform string

const (
	// Bare runs the guest directly on the simulated hardware.
	Bare Platform = "bare"
	// Lightweight attaches the paper's partial-emulation monitor.
	Lightweight Platform = "lightweight"
	// Hosted attaches the conventional full-emulation baseline.
	Hosted Platform = "hosted"
)

// Engine selects the machine's execution engine.
type Engine string

const (
	// EngineAuto uses predecoded bursts whenever the CPU is burst-safe
	// (the default production engine). Debug observers are page-armed, so
	// even recording or breakpointed scenarios stay on this engine.
	EngineAuto Engine = "auto"
	// EngineSlow pins the per-instruction interpreter via the CPU's
	// explicit force-slow knob: identical timeline, no bursts. Fleet
	// sweeps use it for cross-engine differential runs.
	EngineSlow Engine = "slow"
)

// Scenario specifies one self-contained machine run: the paper's
// streaming workload at one configuration.
type Scenario struct {
	// Name labels the run in results and tables; Matrix.Expand fills a
	// descriptive default when empty.
	Name string `json:"name,omitempty"`
	// Platform is bare, lightweight, or hosted (empty = lightweight).
	Platform Platform `json:"platform,omitempty"`
	// Engine is auto (predecoded bursts) or slow (empty = auto).
	Engine Engine `json:"engine,omitempty"`
	// RateMbps is the offered UDP payload rate (the figure's x-axis).
	RateMbps float64 `json:"rate_mbps"`
	// DurationTicks is the run length in pacing ticks (0 = guest default).
	DurationTicks uint32 `json:"duration_ticks,omitempty"`
	// SegmentBytes overrides the UDP payload size (0 = guest default).
	SegmentBytes uint32 `json:"segment_bytes,omitempty"`
	// Coalesce overrides NIC interrupt coalescing (0 = guest default;
	// the hosted platform's era-accurate NIC always forces 1).
	Coalesce uint32 `json:"coalesce,omitempty"`
	// Seed selects which deterministic volume pattern the disks carry
	// and the receiver validates. The data path's cost is
	// content-independent, so the seed varies the streamed bytes without
	// moving any simulated metric.
	Seed uint64 `json:"seed,omitempty"`
	// MaxCycles is the run's cycle limit (0 = RunLimit of the workload:
	// its duration plus the settle margin every streaming run gets).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// StopAtInstr stops the run once the CPU retires this many
	// instructions (0 = disabled).
	StopAtInstr uint64 `json:"stop_at_instr,omitempty"`
	// Costs replaces the platform's calibrated monitor cost model
	// (ablation sweeps), so every field must be given: an omitted field
	// is 0. Ignored on bare metal, though still validated.
	Costs *perfmodel.Costs `json:"costs,omitempty"`
	// Record, when non-empty, streams a v3 execution trace of the run to
	// this file path (segmented format, delta snapshots; see
	// internal/replay) — recorder memory stays bounded however long the
	// scenario runs. The trace replays through `hxreplay replay` unless
	// the scenario overrides Costs, which trace metadata cannot express
	// (such traces are marked custom). In a matrix template the path is
	// treated as a per-cell template (the scenario name is spliced in
	// before the extension) so concurrent workers never share a file.
	Record string `json:"record,omitempty"`
	// RecordSnapInterval is the recording's snapshot spacing in cycles
	// (0 = replay.DefaultSnapshotInterval).
	RecordSnapInterval uint64 `json:"record_snap_interval,omitempty"`
	// Fault, when non-nil and non-empty, installs a deterministic
	// fault-injection plan on the scenario's machine. Faults are
	// scheduled in simulated quantities only, so a faulty scenario is
	// exactly as reproducible as a clean one; recorded faulty runs carry
	// the plan in trace metadata and replay bit-identically.
	Fault *fault.Plan `json:"fault,omitempty"`
	// Watchdog bounds the scenario's wall-clock runtime in seconds
	// (0 = unbounded). A wedged scenario — livelocked guest, fault plan
	// that stalls forward progress — is stopped via the machine's
	// RequestStop latch and its result marked TimedOut with stop reason
	// "timed_out"; the rest of the sweep is unaffected. The deadline is
	// the only wall-clock input, and it only ever truncates a run: the
	// simulated prefix it cuts at is not deterministic, which is why
	// timed-out results are flagged rather than silently reported.
	Watchdog float64 `json:"watchdog_secs,omitempty"`
}

// Result is the distilled outcome of one scenario run. Every field is a
// function of simulated state only — no wall-clock, no host identity —
// so results from runs at different parallelism compare bit-identically.
type Result struct {
	Scenario Scenario `json:"scenario"`

	// Err reports a setup, launch, or scheduling failure; the machine
	// never ran (or never finished cleanly enough to measure).
	Err string `json:"error,omitempty"`

	// StopReason is machine.StopReason.String() for the completed run,
	// or "timed_out" when the watchdog cut it short.
	StopReason string `json:"stop_reason,omitempty"`
	// TimedOut marks a run the per-scenario watchdog stopped. Its
	// simulated metrics describe a wall-clock-truncated prefix and are
	// not comparable across hosts or -j levels.
	TimedOut bool `json:"timed_out,omitempty"`
	// FaultsInjected counts faults the scenario's plan actually fired.
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	// PC is the guest program counter at stop.
	PC uint32 `json:"pc"`
	// ExitCode is the guest's simctl DONE value.
	ExitCode uint32 `json:"exit_code"`

	// Virtual-clock accounting.
	Clock         uint64  `json:"clock_cycles"`
	IdleCycles    uint64  `json:"idle_cycles"`
	MonitorCycles uint64  `json:"monitor_cycles"`
	CPULoad       float64 `json:"cpu_load"`
	MonitorShare  float64 `json:"monitor_share"`

	// Wire-side metrics from the validating receiver.
	AchievedMbps float64 `json:"achieved_mbps"`
	Frames       uint64  `json:"frames"`
	PayloadBytes uint64  `json:"payload_bytes"`
	Clean        bool    `json:"clean"`
	NetError     string  `json:"net_error,omitempty"`

	// Guest-reported result counters.
	Guest guest.Results `json:"guest"`

	// VMM carries the monitor statistics; nil on bare metal.
	VMM *vmm.Stats `json:"vmm,omitempty"`

	// TracePath/TraceBytes report the streamed recording when the
	// scenario requested one.
	TracePath  string `json:"trace_path,omitempty"`
	TraceBytes int64  `json:"trace_bytes,omitempty"`
}

// RunOne executes a single scenario on a private machine and returns its
// result. Cancelling ctx stops the machine through the thread-safe
// RequestStop path; the result then reports StopReason "stop requested".
func RunOne(ctx context.Context, sc Scenario) Result {
	res := Result{Scenario: sc}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		res.Err = err.Error()
		return res
	}

	pf := sc.Platform
	if pf == "" {
		pf = Lightweight
	}

	params := guest.DefaultParams(sc.RateMbps)
	if sc.DurationTicks != 0 {
		params.DurationTicks = sc.DurationTicks
	}
	if sc.SegmentBytes != 0 {
		params.SegmentBytes = sc.SegmentBytes
	}
	if sc.Coalesce != 0 {
		params.Coalesce = sc.Coalesce
	}
	sys, err := Boot(pf, params, sc.Seed, sc.Fault, sc.Costs)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	m := sys.M

	switch sc.Engine {
	case "", EngineAuto:
	case EngineSlow:
		m.CPU.ForceSlowEngine(true)
	default:
		res.Err = fmt.Sprintf("fleet: unknown engine %q", sc.Engine)
		return res
	}

	if sc.StopAtInstr != 0 {
		m.SetStopAtInstr(sc.StopAtInstr)
	}
	limit := sc.MaxCycles
	if limit == 0 {
		limit = RunLimit(sys.Params)
	}

	// Streamed trace recording: segments flush to the file as the run
	// proceeds, so a fleet of recording scenarios costs each worker one
	// event batch plus one snapshot of resident memory, not one trace.
	var rec *replay.Recorder
	var recFile *os.File
	if sc.Record != "" {
		meta := sys.TraceMeta()
		meta.Label = sc.Name
		// A Costs override changes the simulated timeline but has no
		// slot in trace metadata; the replay side could not rebuild the
		// machine, so the trace is marked custom.
		meta.Custom = sc.Costs != nil
		recFile, err = createWithRetry(sc.Record)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		rec, err = replay.NewStreamRecorder(recFile, m, sys.Mon, sys.Recv, meta,
			replay.Options{SnapshotInterval: sc.RecordSnapInterval})
		if err != nil {
			recFile.Close()
			res.Err = err.Error()
			return res
		}
		rec.Start()
	}

	// Propagate cancellation into the running guest. RequestStop is the
	// machine's one thread-safe entry point; everything else stays
	// confined to this goroutine.
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				m.RequestStop()
			case <-watchDone:
			}
		}()
	}

	// The watchdog is the crash-tolerance bound for wedged scenarios: a
	// wall-clock deadline that fires the same thread-safe RequestStop
	// latch cancellation uses. It never perturbs a healthy run's
	// simulated timeline — it either never fires, or truncates the run
	// and flags the result.
	var wedged atomic.Bool
	if sc.Watchdog > 0 {
		wd := time.AfterFunc(time.Duration(sc.Watchdog*float64(time.Second)), func() {
			wedged.Store(true)
			m.RequestStop()
		})
		defer wd.Stop()
	}

	reason := m.Run(limit)

	if rec != nil {
		stats, err := rec.FinishStream()
		cerr := recFile.Close()
		switch {
		case err != nil:
			res.Err = fmt.Sprintf("fleet: recording %s: %v", sc.Record, err)
		case cerr != nil:
			res.Err = fmt.Sprintf("fleet: recording %s: %v", sc.Record, cerr)
		default:
			res.TracePath = sc.Record
			res.TraceBytes = stats.BytesWritten
		}
	}

	res.StopReason = reason.String()
	if wedged.Load() && reason == machine.StopRequested {
		res.TimedOut = true
		res.StopReason = "timed_out"
	}
	sys.ReadOutcome(&res)
	// Everything the result needs has been copied out; recycle the
	// machine's RAM so the worker's next scenario skips a multi-MB
	// allocate-and-clear.
	m.Release()
	return res
}

// createFile is the record path's file-creation hook; tests stub it to
// simulate transient host I/O failures.
var createFile = os.Create

// createWithRetry opens the scenario's record file, retrying transient
// host failures (NFS hiccups, overloaded CI disks) a bounded number of
// times with a short backoff. The retry happens before the machine
// runs, so it cannot perturb any simulated metric; if the host is
// genuinely broken the last error is returned and only this scenario
// fails.
func createWithRetry(path string) (*os.File, error) {
	const attempts = 3
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(time.Duration(i) * 50 * time.Millisecond)
		}
		var f *os.File
		if f, err = createFile(path); err == nil {
			return f, nil
		}
	}
	return nil, fmt.Errorf("fleet: create %s (%d attempts): %w", path, attempts, err)
}
