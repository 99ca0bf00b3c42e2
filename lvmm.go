// Package lvmm is the public face of the reproduction of "OS Debugging
// Method Using a Lightweight Virtual Machine Monitor" (Takeuchi, DATE'05).
//
// It assembles the pieces — the simulated PC/AT-class target machine, the
// HiTactix-stand-in guest OS, the lightweight VMM (the paper's
// contribution), the conventional hosted-VMM baseline, and the remote
// debugger — into three-line recipes:
//
//	t, _ := lvmm.NewStreamingTarget(lvmm.Lightweight, lvmm.WorkloadDefaults(200))
//	stats, _ := t.Run()
//	fmt.Println(stats)
//
// and, for debugging:
//
//	dbg, _ := t.Debugger()
//	dbg.Interrupt()
//	regs, _ := dbg.Regs()
//
// See DESIGN.md for the system inventory and README.md for the
// paper-versus-reproduction results.
package lvmm

import (
	"fmt"
	"io"
	"math"

	"lvmm/internal/debugger"
	"lvmm/internal/fault"
	"lvmm/internal/fleet"
	"lvmm/internal/gdbstub"
	"lvmm/internal/guest"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// Platform selects how the guest OS runs — the three systems of Fig 3.1.
// Its values are the trace-metadata integers of fleet's platform table
// (fleet.PlatformAt).
type Platform int

const (
	// BareMetal runs the guest directly at CPL0 (the paper's "real
	// hardware" baseline).
	BareMetal Platform = iota
	// Lightweight runs the guest on the paper's monitor: debug-critical
	// hardware emulated, storage and network passed through.
	Lightweight
	// HostedFull runs the guest on a conventional full-emulation hosted
	// VMM (the VMware Workstation 4 baseline).
	HostedFull
)

func (p Platform) String() string {
	switch p {
	case BareMetal:
		return "bare metal"
	case Lightweight:
		return "lightweight VMM"
	case HostedFull:
		return "hosted full-emulation VMM"
	}
	return "unknown platform"
}

// Workload parameterizes the paper's §3 streaming evaluation: read blocks
// from three SCSI disks at a paced rate, segment, transmit as UDP.
type Workload struct {
	// RateMbps is the offered transfer rate (UDP payload Mb/s).
	RateMbps float64
	// Seconds is the virtual run length.
	Seconds float64
	// SegmentBytes is the UDP payload size (power of two, default 1024).
	SegmentBytes uint32
	// BlockBytes is the disk read size (power of two, default 2 MB).
	BlockBytes uint32
	// CsumOffload advertises NIC checksum offload to the guest (ignored
	// on HostedFull, whose virtual NIC has none).
	CsumOffload bool
	// Coalesce is the NIC interrupt-coalescing factor.
	Coalesce uint32
}

// WorkloadDefaults returns the paper's workload at the given rate for a
// half-second virtual run.
func WorkloadDefaults(rateMbps float64) Workload {
	return Workload{
		RateMbps:     rateMbps,
		Seconds:      0.5,
		SegmentBytes: 1024,
		BlockBytes:   2 << 20,
		CsumOffload:  true,
		Coalesce:     1,
	}
}

// params resolves the workload's defaults into boot parameters. The boot
// info carries the run length as a uint32 tick count; a float
// conversion out of that range (NaN and ±Inf included) is
// implementation-dependent, so such a length is refused.
func (w Workload) params() (guest.Params, error) {
	p := guest.DefaultParams(w.RateMbps)
	if w.SegmentBytes != 0 {
		p.SegmentBytes = w.SegmentBytes
	}
	if w.BlockBytes != 0 {
		p.BlockBytes = w.BlockBytes
	}
	p.CsumOffload = w.CsumOffload
	if w.Coalesce != 0 {
		p.Coalesce = w.Coalesce
	}
	secs := w.Seconds
	if secs == 0 {
		secs = 0.5
	}
	ticks := secs * float64(p.TickHz)
	if !(ticks >= 0 && ticks <= math.MaxUint32) {
		return guest.Params{}, fmt.Errorf("lvmm: run length %g s is not encodable at %d Hz", w.Seconds, p.TickHz)
	}
	p.DurationTicks = uint32(ticks)
	if p.DurationTicks == 0 {
		p.DurationTicks = 1
	}
	return p, nil
}

// Target is a booted guest on one of the three platforms.
type Target struct {
	platform Platform
	sys      *fleet.System
	stub     *gdbstub.Stub
}

// FaultPlan re-exports fault.Plan: a deterministic fault-injection
// schedule (packet drop/corrupt/duplicate, disk read errors and latency
// spikes, lost and spurious interrupts), expressed entirely in simulated
// quantities so faulty runs record and replay bit-identically.
type FaultPlan = fault.Plan

// NewStreamingTarget builds the evaluation machine (three pattern-filled
// disks, validating receiver), loads the streaming guest configured by w,
// and boots it on the chosen platform with the debug stub attached where
// the platform provides one (both VMM flavours).
func NewStreamingTarget(p Platform, w Workload) (*Target, error) {
	return NewStreamingTargetFaulty(p, w, nil)
}

// NewStreamingTargetFaulty is NewStreamingTarget with a fault plan
// installed: the plan's schedules drive deterministic fault injection
// into the network, disk, and interrupt paths, and travel in the trace
// metadata of any recording made from the target. A nil or empty plan
// is identical to NewStreamingTarget.
func NewStreamingTargetFaulty(p Platform, w Workload, plan *FaultPlan) (*Target, error) {
	params, err := w.params()
	if err != nil {
		return nil, err
	}
	return newStreamingTarget(p, params, 0, plan)
}

// ParsePlatform resolves a command-line platform name (bare, lightweight,
// hosted, or an alias; see fleet.ParsePlatform).
func ParsePlatform(s string) (Platform, error) {
	pf, err := fleet.ParsePlatform(s)
	return Platform(pf.Index()), err
}

// newStreamingTarget boots a streaming target through fleet.Boot, the
// one builder every recording and replay path shares, and enables the
// monitor-resident debug stub. Replay uses it to reconstruct the
// recorded machine from a trace's metadata.
func newStreamingTarget(p Platform, params guest.Params, seed uint64, plan *fault.Plan) (*Target, error) {
	pf, err := fleet.PlatformAt(int(p))
	if err != nil {
		return nil, err
	}
	sys, err := fleet.Boot(pf, params, seed, plan, nil)
	if err != nil {
		return nil, err
	}
	t := &Target{platform: p, sys: sys}
	if sys.Mon != nil {
		t.stub = sys.Mon.EnableDebugStub()
	}
	return t, nil
}

// Machine exposes the underlying simulated machine.
func (t *Target) Machine() *machine.Machine { return t.sys.M }

// Monitor exposes the attached VMM (nil on bare metal).
func (t *Target) Monitor() *vmm.VMM { return t.sys.Mon }

// Receiver exposes the validating network sink.
func (t *Target) Receiver() *netsim.Receiver { return t.sys.Recv }

// Release returns the target's physical memory to the RAM pool (see
// machine.Release). The target must not be used afterwards; callers
// running many targets in sequence — the fleet runner, benchmarks —
// use it to skip re-allocating and re-zeroing tens of megabytes per
// run.
func (t *Target) Release() { t.sys.M.Release() }

// RunStats summarizes a completed streaming run.
type RunStats struct {
	Platform     Platform
	OfferedMbps  float64
	AchievedMbps float64
	CPULoad      float64
	MonitorShare float64
	Segments     uint64
	Clean        bool
	ValidateErr  string
}

// String renders the stats in one line.
func (s RunStats) String() string {
	ok := "stream clean"
	if !s.Clean {
		ok = "STREAM INVALID: " + s.ValidateErr
	}
	return fmt.Sprintf("%s: offered %.0f Mb/s, achieved %.1f Mb/s, CPU load %.1f%% (monitor %.1f%%), %d segments, %s",
		s.Platform, s.OfferedMbps, s.AchievedMbps, s.CPULoad*100,
		s.MonitorShare*100, s.Segments, ok)
}

// Run executes the workload to completion and returns the measurements.
func (t *Target) Run() (RunStats, error) {
	m := t.sys.M
	reason := m.Run(fleet.RunLimit(t.sys.Params))
	if reason != machine.StopGuestDone {
		return RunStats{}, fmt.Errorf("lvmm: run ended with %v at pc=%08x", reason, m.CPU.PC)
	}
	return t.stats()
}

// stats reads the completed run's measurements off the machine.
func (t *Target) stats() (RunStats, error) {
	var res fleet.Result
	t.sys.ReadOutcome(&res)
	if g := res.Guest; g.ExitCode != 0 {
		return RunStats{}, fmt.Errorf("lvmm: guest failed, exit=%#x cause=%s vaddr=%#x",
			g.ExitCode, isa.CauseName(g.FatalCause), g.FatalVaddr)
	}
	return RunStats{
		Platform:     t.platform,
		OfferedMbps:  t.sys.Params.RateMbps,
		AchievedMbps: res.AchievedMbps,
		CPULoad:      res.CPULoad,
		MonitorShare: res.MonitorShare,
		Segments:     res.Frames,
		Clean:        res.Clean,
		ValidateErr:  res.NetError,
	}, nil
}

// RunFor advances the target by the given virtual seconds without
// requiring completion (for interactive/debugging sessions).
func (t *Target) RunFor(seconds float64) machine.StopReason {
	m := t.sys.M
	return m.Run(m.Clock() + isa.SecondsToCycles(seconds))
}

// Debugger connects a remote debugger to the target's stub over an
// in-process deterministic transport. Only VMM platforms host a
// monitor-resident stub; see gdbstub.NewGuestResident for the
// conventional embedded alternative.
func (t *Target) Debugger() (*debugger.Client, error) {
	if t.stub == nil {
		return nil, fmt.Errorf("lvmm: platform %v has no monitor-resident debug stub", t.platform)
	}
	return debugger.New(debugger.NewSimTransport(t.sys.M))
}

// Record/replay: every debugging session on the deterministic target is
// repeatable, reversible, and shippable as a trace file.

// RecordOptions re-exports replay.Options.
type RecordOptions = replay.Options

// RecordStream begins recording straight to w in the streaming v3 trace
// format: event batches, keyframes, and delta snapshots flush as the run
// proceeds, so recorder memory stays bounded regardless of run length.
// To keep the trace in memory, record into a bytes.Buffer and open it
// with replay.NewLazyTrace. Call FinishStream on the returned recorder
// when the run is over (and close w yourself if it is a file).
func (t *Target) RecordStream(w io.Writer, opts RecordOptions) (*replay.Recorder, error) {
	rec, err := replay.NewStreamRecorder(w, t.sys.M, t.sys.Mon, t.sys.Recv, t.sys.TraceMeta(), opts)
	if err != nil {
		return nil, err
	}
	rec.Start()
	return rec, nil
}

// ReplayTarget is a Target reconstructed from a trace and driven by a
// Replayer. Its debugger gains time travel: the RSP bs/bc packets and the
// REPL's rstep/rcont/checkpoint commands work against the recorded
// timeline.
type ReplayTarget struct {
	*Target
	rp *replay.Replayer
}

// ReplaySource rebuilds the recorded target from an opened trace (see
// replay.NewLazyTrace and replay.OpenSourceFile) and rewinds it to the
// trace's initial checkpoint. The replay session's resident trace data
// stays bounded by the LRU budget however long the recording is.
func ReplaySource(src *replay.LazyTrace) (*ReplayTarget, error) {
	meta := src.Meta()
	if meta.Custom {
		return nil, fmt.Errorf("lvmm: trace records a custom machine; rebuild it and use replay.NewReplayerSource directly")
	}
	t, err := newStreamingTarget(Platform(meta.Platform), meta.Params, meta.Seed, meta.Fault)
	if err != nil {
		return nil, err
	}
	rp, err := replay.NewReplayerSource(src, t.sys.M, t.sys.Mon, t.sys.Recv)
	if err != nil {
		return nil, err
	}
	if t.stub != nil {
		t.stub.SetReverser(rp)
	}
	return &ReplayTarget{Target: t, rp: rp}, nil
}

// Replayer exposes the underlying replay engine (seeking, divergence
// state, reverse operations).
func (rt *ReplayTarget) Replayer() *replay.Replayer { return rt.rp }

// Run re-executes the recorded run to its end, verifying the replayed
// timeline (interrupts, timer ticks, frame digests, final state digest)
// against the recording, and returns the re-measured statistics — which
// are bit-identical to the original run's.
func (rt *ReplayTarget) Run() (RunStats, error) {
	if err := rt.rp.RunToEnd(); err != nil {
		return RunStats{}, err
	}
	return rt.stats()
}
