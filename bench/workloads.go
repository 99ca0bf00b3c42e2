// Package bench is the lvmm benchmark. Its workloads drive the simulator
// only through the public functions of its modules (fleet, machine,
// guest, vmm, replay and the root lvmm package) and time those calls
// from outside. A separately traced pass CPU-profiles the same ops and
// splits host time across the modules (see attrib.go).
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"lvmm"
	"lvmm/internal/experiment"
	"lvmm/internal/fleet"
	"lvmm/internal/guest"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	Why  string
	// Cycle is the length of the workload's repeating op sequence: op i
	// does the same work as op i+Cycle. A pass makes at least one cycle.
	Cycle int
	start func(seed uint64, tr *tracer) (session, error)
}

// Workloads are the benchmark's workloads in run order. Their names are
// part of the benchmark's interface (BENCHMARK.json, results, compare).
var Workloads = []*Workload{
	{
		Name:  "stream_lw",
		Why:   "Lightweight monitor saturated at 700 Mb/s offered for 1.0 virtual s: trap-dense, it exercises engine, vmm, hw, disk fill and receiver together as a debugged OS does",
		Cycle: 1,
		start: startStream(streamSpec{lw: true, rate: 700, seconds: 1.0}),
	},
	{
		Name:  "stream_bare",
		Why:   "Bare metal saturated at 660 Mb/s offered for 0.4 virtual s: no monitor, so a vmm change must not move it; engine, disk fill and receiver dominate",
		Cycle: 1,
		start: startStream(streamSpec{rate: 660, seconds: 0.4}),
	},
	{
		Name:  "record_lw",
		Why:   "stream_lw plus the v3 streaming recorder at CLI defaults into a discarding sink: the write side, whose gap to stream_lw is the recording tax",
		Cycle: 1,
		start: startStream(streamSpec{lw: true, rate: 700, seconds: 1.0, record: true}),
	},
	{
		Name:  "timetravel",
		Why:   "A seeded script of SeekInstr and ReverseStep(1) ops on a lazily opened 2.0 virtual s stream_lw recording: the read side, bound by segment faults, restores and re-execution",
		Cycle: ttScriptLen,
		start: startTimetravel,
	},
	{
		Name:  "fig31_sweep",
		Why:   "Full Fig 3.1 sweep (3 platforms x 13 rates, 40 ticks) on a 2-job fleet: the hosted platform, idle-heavy low rates and fleet parallelism",
		Cycle: 1,
		start: startSweep,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// session is a set-up workload. op runs the i-th op of the workload's
// seeded op sequence (i < 0 for the untimed warm-up op).
type session interface {
	op(i int) (opResult, error)
	close()
}

// run is one simulated run an op made: a streaming run, a time-travel
// op, or one scenario of the sweep. ID is the run's place in the
// workload's repeating sequence, so repeats of the same work share it.
type run struct {
	ID int     `json:"id"`
	Ms float64 `json:"ms"` // host wall time
	VS float64 `json:"vs"` // virtual seconds simulated
}

type opResult struct {
	runs []run
	// sim holds the op's simulated statistics: compared against the pins
	// and against the warm-up op's.
	sim map[string]float64
	// counts holds per-layer counters, summed over ops (maxKeys: maxed).
	counts map[string]float64
}

// maxKeys are the counters that keep their high-water mark across ops.
var maxKeys = map[string]bool{
	"replay.rec.max_pending_ev":  true,
	"replay.seg.max_resident_mb": true,
}

// runLimit is the cycle limit lvmm.Target.Run and fleet.RunOne give a
// streaming run: its duration plus the settle margin.
func runLimit(p guest.Params) uint64 {
	return uint64(p.DurationTicks+400) * isa.ClockHz / uint64(p.TickHz)
}

// boot builds the evaluation machine with the seed's disk content and
// boots the streaming guest on bare metal or under the lightweight
// monitor.
func boot(p guest.Params, lw bool, seed uint64) (*machine.Machine, *vmm.VMM, *netsim.Receiver, error) {
	recv := netsim.NewReceiver()
	m := machine.NewStreamingSeeded(p.BlockBytes, recv, guest.KernelBase, seed)
	entry, err := guest.Prepare(m, p)
	if err != nil {
		m.Release()
		return nil, nil, nil, err
	}
	if !lw {
		m.CPU.Reset(entry)
		return m, nil, recv, nil
	}
	mon := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := mon.Launch(entry); err != nil {
		m.Release()
		return nil, nil, nil, err
	}
	return m, mon, recv, nil
}

// checkRun fails a streaming run that did not end the way the paper's
// workload must: guest done, exit code 0, every frame validated.
func checkRun(m *machine.Machine, recv *netsim.Receiver, reason machine.StopReason) error {
	if reason != machine.StopGuestDone {
		return fmt.Errorf("run ended with %v at pc=%08x", reason, m.CPU.PC)
	}
	if r := guest.ReadResults(m); r.ExitCode != 0 {
		return fmt.Errorf("guest exit %#x cause=%s", r.ExitCode, isa.CauseName(r.FatalCause))
	}
	if !recv.Clean() {
		return fmt.Errorf("receiver stream unclean: %s", recv.LastError())
	}
	return nil
}

// streamStats reads a finished run's simulated statistics and per-layer
// counters off the machine.
func streamStats(m *machine.Machine, mon *vmm.VMM, recv *netsim.Receiver) (sim, counts map[string]float64) {
	c := m.CPU
	sb := c.SBStats()
	busy := float64(m.BusyCycles())
	share := 0.0
	if busy > 0 {
		share = float64(m.MonitorCycles()) / busy
	}
	sim = map[string]float64{
		"achieved_mbps": recv.RateMbps(m.Clock()),
		"cpu_load":      m.CPULoad(),
		"monitor_share": share,
		"frames":        float64(recv.Frames),
		"instr":         float64(c.Stat.Instructions),
		"vcycles":       float64(m.Clock()),
	}
	fill := uint64(0)
	for _, h := range m.SCSI {
		fill += h.BytesRead
	}
	counts = map[string]float64{
		"cpu.instr":             float64(c.Stat.Instructions),
		"cpu.burst_ticks":       float64(c.BurstTicks()),
		"cpu.sb_runs":           float64(sb.Runs),
		"cpu.sb_chain_hits":     float64(sb.ChainHits),
		"cpu.sb_chain_misses":   float64(sb.ChainMisses),
		"cpu.sb_severed":        float64(sb.Severed),
		"cpu.tlb_misses":        float64(c.Stat.TLBMisses),
		"hw.port_ops":           float64(c.Stat.PortReads + c.Stat.PortWrites),
		"hw.irqs":               float64(c.Stat.IRQsTaken),
		"netsim.fill.bytes":     float64(fill),
		"netsim.recv.frames":    float64(recv.Frames),
		"netsim.recv.payload_b": float64(recv.PayloadBytes),
		"machine.vcycles":       float64(m.Clock()),
		"machine.idle_cycles":   float64(m.IdleCycles()),
		"machine.busy_cycles":   busy,
		"vmm.monitor_cycles":    float64(m.MonitorCycles()),
	}
	if mon != nil {
		counts["vmm.traps"] = float64(mon.Stats.Traps)
		counts["vmm.injections"] = float64(mon.Stats.Injections)
		counts["vmm.irq_intercepts"] = float64(mon.Stats.IRQsIntercepts)
		counts["vmm.io_emulated"] = float64(mon.Stats.IOEmulated)
		counts["hw.irqs"] = float64(mon.Stats.IRQsIntercepts)
	}
	return sim, counts
}

// streamSpec is one streaming configuration of the paper's §3 workload.
type streamSpec struct {
	lw, record    bool
	rate, seconds float64
}

type streamSession struct {
	spec   streamSpec
	seed   uint64
	tr     *tracer
	params guest.Params
}

func startStream(spec streamSpec) func(uint64, *tracer) (session, error) {
	return func(seed uint64, tr *tracer) (session, error) {
		p := guest.DefaultParams(spec.rate)
		p.DurationTicks = uint32(spec.seconds * float64(p.TickHz))
		return &streamSession{spec: spec, seed: seed, tr: tr, params: p}, nil
	}
}

// op is one complete run: build and boot a machine, stream for the
// spec's virtual seconds (recording when asked), validate, release.
func (s *streamSession) op(i int) (opResult, error) {
	t0 := time.Now()
	done := s.tr.begin("setup", 0, i)
	m, mon, recv, err := boot(s.params, s.spec.lw, s.seed)
	if err != nil {
		return opResult{}, err
	}
	done()
	res, err := s.stream(i, m, mon, recv)
	done = s.tr.begin("release", 0, i)
	m.Release()
	done()
	if err != nil {
		return opResult{}, err
	}
	res.runs[0].Ms = ms(time.Since(t0))
	return res, nil
}

func (s *streamSession) stream(i int, m *machine.Machine, mon *vmm.VMM, recv *netsim.Receiver) (opResult, error) {
	var rec *replay.Recorder
	if s.spec.record {
		meta := replay.TraceMeta{Platform: int(lvmm.Lightweight), Params: s.params, Seed: s.seed}
		var err error
		if rec, err = replay.NewStreamRecorder(io.Discard, m, mon, recv, meta, replay.Options{}); err != nil {
			return opResult{}, err
		}
		rec.Start()
	}
	done := s.tr.begin("run", 0, i)
	reason := m.Run(runLimit(s.params))
	done()
	var st replay.StreamStats
	var finishMs float64
	if rec != nil {
		done = s.tr.begin("finish", 0, i)
		t0 := time.Now()
		var err error
		st, err = rec.FinishStream()
		finishMs = ms(time.Since(t0))
		done()
		if err != nil {
			return opResult{}, fmt.Errorf("recording: %w", err)
		}
	}
	if err := checkRun(m, recv, reason); err != nil {
		return opResult{}, err
	}
	sim, counts := streamStats(m, mon, recv)
	if rec != nil {
		sim["trace_bytes"] = float64(st.BytesWritten)
		sim["trace_events"] = float64(st.Events)
		sim["trace_segments"] = float64(st.Segments)
		counts["replay.rec.events"] = float64(st.Events)
		counts["replay.rec.segments"] = float64(st.Segments)
		counts["replay.rec.keyframes"] = float64(st.Keyframes)
		counts["replay.rec.deltas"] = float64(st.Deltas)
		counts["replay.rec.bytes"] = float64(st.BytesWritten)
		counts["replay.rec.max_pending_ev"] = float64(st.MaxPendingEvents)
		counts["replay.rec.finish_ms"] = finishMs
	}
	return opResult{runs: []run{{VS: isa.CyclesToSeconds(m.Clock())}}, sim: sim, counts: counts}, nil
}

func (s *streamSession) close() {}

// ttScriptLen is the length of the time-travel script. The timed ops
// cycle through it, so every script op is timed several times per pass
// and its fastest time can be compared across commits.
const ttScriptLen = 100

// ttOp is one script op: a SeekInstr to target, or a ReverseStep(1).
type ttOp struct {
	seek   bool
	target uint64
}

// ttSession holds a lazily opened recording, the replay target that
// travels through it, and the seeded script it follows from start.
type ttSession struct {
	tr     *tracer
	lt     *replay.LazyTrace
	rt     *lvmm.ReplayTarget
	script []ttOp
	start  uint64
	recSim map[string]float64
}

// startTimetravel records 2.0 virtual s of stream_lw at recorder
// defaults into memory, then opens it lazily with the default 64 MB
// segment LRU and rebuilds the target through lvmm.ReplaySource.
func startTimetravel(seed uint64, tr *tracer) (session, error) {
	p := guest.DefaultParams(700)
	p.DurationTicks = 2 * p.TickHz
	done := tr.begin("setup", 0, -1)
	m, mon, recv, err := boot(p, true, seed)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	var buf bytes.Buffer
	meta := replay.TraceMeta{Platform: int(lvmm.Lightweight), Params: p, Seed: seed}
	rec, err := replay.NewStreamRecorder(&buf, m, mon, recv, meta, replay.Options{})
	if err != nil {
		return nil, err
	}
	rec.Start()
	done()
	done = tr.begin("run", 0, -1)
	reason := m.Run(runLimit(p))
	done()
	done = tr.begin("finish", 0, -1)
	st, err := rec.FinishStream()
	done()
	if err != nil {
		return nil, fmt.Errorf("recording: %w", err)
	}
	if err := checkRun(m, recv, reason); err != nil {
		return nil, fmt.Errorf("recording: %w", err)
	}

	done = tr.begin("open", 0, -1)
	lt, err := replay.NewLazyTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()), replay.DefaultLRUBudget)
	if err != nil {
		return nil, err
	}
	rt, err := lvmm.ReplaySource(lt)
	done()
	if err != nil {
		return nil, err
	}
	_, last, _, _ := lt.End()
	script, start := ttScript(seed, lt.StartInstr(), last)
	return &ttSession{
		tr: tr, lt: lt, rt: rt, script: script, start: start,
		recSim: map[string]float64{
			"recording_instr":   float64(st.EndInstr),
			"recording_vcycles": float64(st.EndCycle),
		},
	}, nil
}

// ttScript draws the seed's script over the instruction range [first,
// last]: each seek is followed by a ReverseStep(1). The seeks come in
// pairs, one forward and one backward, whose distances are consecutive
// entries of a fixed ladder, (j+1/2)/n of 45% of the range for j < n;
// the seed shuffles the order of the pairs, and so where every target
// lands. A forward seek re-executes its whole distance while a backward
// one restores a checkpoint first, so with uniformly random targets the
// script's cost itself varied by 15% (its p90 by 29%) between seeds;
// with the ladder, every seed's script does the same re-execution. The
// pairs keep the position near the middle of the range, so no seek
// falls off an end. start is where the script ends: every pass through
// it starts there (the warm-up op seeks there first), so every pass
// repeats the same work.
func ttScript(seed, first, last uint64) (script []ttOp, start uint64) {
	x := seed
	next := func() uint64 { // splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	n := ttScriptLen / 2 // seeks
	pairs := make([]int, n/2)
	for i := range pairs {
		pairs[i] = i
	}
	for i := len(pairs) - 1; i > 0; i-- {
		k := int(next() % uint64(i+1))
		pairs[i], pairs[k] = pairs[k], pairs[i]
	}
	span := last - first
	dist := func(j int) uint64 { return uint64(2*j+1) * span * 9 / uint64(40*n) }
	pos := first + span/2
	seek := func(d uint64, fwd bool) {
		if fwd && pos+d > last || !fwd && pos-first < d {
			fwd = !fwd
		}
		if fwd {
			pos += d
		} else {
			pos -= d
		}
		script = append(script, ttOp{seek: true, target: pos}, ttOp{})
		if pos > 1 && pos-1 > first {
			pos--
		} else {
			pos = first
		}
	}
	for _, i := range pairs {
		// Alternate which of the pair goes forward, so the position does
		// not drift by a rung per pair.
		fwd, back := dist(2*i), dist(2*i+1)
		if i%2 == 1 {
			fwd, back = back, fwd
		}
		seek(fwd, true)
		seek(back, false)
	}
	return script, pos
}

// nearest is the checkpoint a seek to instr restores: the latest one at
// or before it (the replayer's own rule).
func (s *ttSession) nearest(instr uint64) replay.CheckpointMeta {
	n := s.lt.NumCheckpoints()
	i := sort.Search(n, func(i int) bool { return s.lt.CheckpointMeta(i).Instr > instr })
	return s.lt.CheckpointMeta(max(i-1, 0))
}

// op runs script op i (mod the script length); the warm-up op seeks to
// the script's start. Every op must land exactly on its target.
func (s *ttSession) op(i int) (opResult, error) {
	k, o := -1, ttOp{seek: true, target: s.start}
	if i >= 0 {
		k = i % len(s.script)
		o = s.script[k]
	}
	rp := s.rt.Replayer()
	m := s.rt.Machine()
	first := s.lt.StartInstr()
	cur, fromCycle := rp.Position(), m.Clock()
	faults := s.lt.Faults()
	bt, sb := m.CPU.BurstTicks(), m.CPU.SBStats()

	want, restore := o.target, o.target < cur
	t0 := time.Now()
	done := s.tr.begin("run", 0, i)
	var err error
	if o.seek {
		err = rp.SeekInstr(want)
	} else {
		want, restore = first, true
		if cur > 1 && cur-1 > first {
			want = cur - 1
		}
		err = rp.ReverseStep(1)
	}
	done()
	took := ms(time.Since(t0))
	if err != nil {
		return opResult{}, err
	}
	if got := rp.Position(); got != want {
		return opResult{}, fmt.Errorf("time travel landed at instr %d, target %d", got, want)
	}
	fromInstr := cur
	if restore {
		cp := s.nearest(want)
		fromInstr, fromCycle = cp.Instr, cp.Cycle
	}
	sb2 := m.CPU.SBStats()
	restores := 0.0
	if restore {
		restores = 1
	}
	return opResult{
		runs: []run{{ID: k, Ms: took, VS: isa.CyclesToSeconds(m.Clock() - fromCycle)}},
		sim:  s.recSim,
		counts: map[string]float64{
			"cpu.instr":                  float64(want - fromInstr),
			"cpu.burst_ticks":            float64(m.CPU.BurstTicks() - bt),
			"cpu.sb_runs":                float64(sb2.Runs - sb.Runs),
			"cpu.sb_chain_hits":          float64(sb2.ChainHits - sb.ChainHits),
			"cpu.sb_chain_misses":        float64(sb2.ChainMisses - sb.ChainMisses),
			"cpu.sb_severed":             float64(sb2.Severed - sb.Severed),
			"machine.vcycles":            float64(m.Clock() - fromCycle),
			"machine.snap.restores":      restores,
			"replay.seg.faults":          float64(s.lt.Faults() - faults),
			"replay.seg.max_resident_mb": float64(s.lt.MaxResidentBytes()) / 1e6,
			"replay.replay.fwd_inst":     float64(want - fromInstr),
		},
	}, nil
}

func (s *ttSession) close() { s.rt.Release() }

// sweepJobs is the fleet's worker count: the host has two cores.
const sweepJobs = 2

type sweepSession struct {
	tr    *tracer
	scs   []fleet.Scenario
	plats []experiment.Platform
}

// startSweep lays out Fig 3.1: every platform at every standard rate,
// 40 ticks per point, all streaming the seed's disk content.
func startSweep(seed uint64, tr *tracer) (session, error) {
	s := &sweepSession{tr: tr}
	for _, pf := range []experiment.Platform{experiment.BareMetal, experiment.LightweightVMM, experiment.HostedVMM} {
		for _, r := range experiment.StandardRates {
			sc := experiment.Scenario(pf, experiment.Options{DurationTicks: 40}, r)
			sc.Seed = seed
			s.scs = append(s.scs, sc)
			s.plats = append(s.plats, pf)
		}
	}
	return s, nil
}

// op runs the whole sweep on fleet.Runner and checks every point and
// the paper's headline ratios.
func (s *sweepSession) op(i int) (opResult, error) {
	ctx := context.Background()
	n := len(s.scs)
	res := make([]fleet.Result, n)
	runs := make([]run, n)
	lanes := make(chan int, sweepJobs)
	for l := 1; l <= sweepJobs; l++ {
		lanes <- l
	}
	t0 := time.Now()
	fleet.Runner{Jobs: sweepJobs}.ForEach(ctx, n, func(k int) {
		lane := <-lanes
		done := s.tr.begin("run", lane, i)
		t := time.Now()
		res[k] = fleet.RunOne(ctx, s.scs[k])
		runs[k] = run{ID: k, Ms: ms(time.Since(t)), VS: isa.CyclesToSeconds(res[k].Clock)}
		done()
		lanes <- lane
	})
	wall := ms(time.Since(t0))

	fig := experiment.Fig31{Points: map[experiment.Platform][]experiment.Point{}, Rates: experiment.StandardRates}
	counts := map[string]float64{"fleet.wall_ms": wall}
	for k, r := range res {
		switch {
		case r.Err != "":
			return opResult{}, fmt.Errorf("%s: %s", r.Scenario.Name, r.Err)
		case r.StopReason != machine.StopGuestDone.String():
			return opResult{}, fmt.Errorf("%s: run ended with %s", r.Scenario.Name, r.StopReason)
		case r.Guest.ExitCode != 0:
			return opResult{}, fmt.Errorf("%s: guest exit %#x", r.Scenario.Name, r.Guest.ExitCode)
		case !r.Clean:
			return opResult{}, fmt.Errorf("%s: receiver stream unclean: %s", r.Scenario.Name, r.NetError)
		}
		fig.Points[s.plats[k]] = append(fig.Points[s.plats[k]], experiment.Point{AchievedMbps: r.AchievedMbps})
		counts["fleet.busy_ms"] += runs[k].Ms
		counts["machine.vcycles"] += float64(r.Clock)
		counts["machine.idle_cycles"] += float64(r.IdleCycles)
		counts["machine.busy_cycles"] += float64(r.Clock - r.IdleCycles)
		counts["vmm.monitor_cycles"] += float64(r.MonitorCycles)
		counts["netsim.recv.frames"] += float64(r.Frames)
		counts["netsim.recv.payload_b"] += float64(r.PayloadBytes)
		if v := r.VMM; v != nil {
			counts["vmm.traps"] += float64(v.Traps)
			counts["vmm.injections"] += float64(v.Injections)
			counts["vmm.irq_intercepts"] += float64(v.IRQsIntercepts)
			counts["vmm.io_emulated"] += float64(v.IOEmulated)
		}
	}
	sum := fig.Summarize()
	return opResult{
		runs: runs,
		sim: map[string]float64{
			"lw_over_hosted": sum.LightweightOverHosted,
			"lw_over_bare":   sum.LightweightOverBare,
		},
		counts: counts,
	}, nil
}

func (s *sweepSession) close() {}
