package fleet

import (
	"fmt"

	"lvmm/internal/fault"
	"lvmm/internal/guest"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/perfmodel"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// platforms is the one platform table. A platform's position is the
// integer trace metadata records for it (replay.TraceMeta.Platform),
// which the root package's lvmm.Platform constants share.
var platforms = [...]Platform{Bare, Lightweight, Hosted}

// Index returns the trace-metadata integer of pf, or -1 for a platform
// outside the table.
func (pf Platform) Index() int {
	for i, p := range platforms {
		if p == pf {
			return i
		}
	}
	return -1
}

// PlatformAt returns the platform a trace-metadata integer names.
func PlatformAt(i int) (Platform, error) {
	if i < 0 || i >= len(platforms) {
		return "", fmt.Errorf("fleet: unknown platform %d", i)
	}
	return platforms[i], nil
}

// platformAliases are the extra spellings ParsePlatform accepts.
var platformAliases = map[string]Platform{"baremetal": Bare, "lvmm": Lightweight, "full": Hosted}

// ParsePlatform resolves a command-line platform name: a platform's own
// name or one of its aliases.
func ParsePlatform(s string) (Platform, error) {
	if pf := Platform(s); pf.Index() >= 0 {
		return pf, nil
	}
	if pf, ok := platformAliases[s]; ok {
		return pf, nil
	}
	return "", fmt.Errorf("unknown platform %q (bare, lightweight, hosted)", s)
}

// System is a booted streaming platform: the machine, the monitor
// beneath the guest (nil on bare metal), the validating receiver, and
// the guest parameters Boot actually loaded.
type System struct {
	M      *machine.Machine
	Mon    *vmm.VMM
	Recv   *netsim.Receiver
	Params guest.Params

	pf   Platform
	seed uint64
	plan *fault.Plan
}

// Boot builds the paper's streaming machine (three pattern-filled disks
// carrying the seed's volume, validating receiver), loads the guest
// configured by params, installs the fault plan, and launches the guest
// on pf. costs overrides the monitor's calibrated cost model (nil keeps
// it; ignored on bare metal).
//
// Boot is the only code that knows the boot order and the hosted
// platform's guest fixups. Recording front ends (lvmm targets, fleet
// scenarios) and the replay rebuild all boot through it, so a trace's
// machine is rebuilt by the code that built it: construction is a pure
// function of the arguments, and a plan one path refuses, every path
// refuses.
func Boot(pf Platform, params guest.Params, seed uint64, plan *fault.Plan, costs *perfmodel.Costs) (*System, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if costs != nil {
		if err := costs.Validate(); err != nil {
			return nil, err
		}
	}
	cfg := vmm.Config{Mode: vmm.Lightweight}
	switch pf {
	case Bare, Lightweight:
	case Hosted:
		cfg.Mode = vmm.Hosted
		// The hosted VMM's era-accurate virtual NIC offers neither
		// checksum offload nor interrupt coalescing; the guest's driver
		// discovers that and falls back (same binary, different device
		// capabilities — exactly as with VMware's vlance).
		params.CsumOffload = false
		params.Coalesce = 1
	default:
		return nil, fmt.Errorf("fleet: unknown platform %q", pf)
	}

	recv := netsim.NewReceiver()
	m := machine.NewStreamingSeeded(params.BlockBytes, recv, guest.KernelBase, seed)
	entry, err := guest.Prepare(m, params)
	if err != nil {
		return nil, err
	}
	if !plan.Empty() {
		m.InstallFaults(plan)
	}
	s := &System{M: m, Recv: recv, Params: params, pf: pf, seed: seed, plan: plan}
	if pf == Bare {
		m.CPU.Reset(entry)
		return s, nil
	}
	if costs != nil {
		cfg.Costs = *costs
	}
	s.Mon = vmm.Attach(m, cfg)
	if err := s.Mon.Launch(entry); err != nil {
		return nil, err
	}
	return s, nil
}

// TraceMeta describes the booted machine as the trace metadata a replay
// rebuilds it from: platform, loaded parameters, content seed, and
// fault plan.
func (s *System) TraceMeta() replay.TraceMeta {
	meta := replay.TraceMeta{Platform: s.pf.Index(), Params: s.Params, Seed: s.seed}
	if !s.plan.Empty() {
		meta.Fault = s.plan
	}
	return meta
}

// RunLimit is the cycle bound of a streaming run: the workload's
// duration plus a 400-tick settle margin in which the guest drains its
// queues and reports.
func RunLimit(p guest.Params) uint64 {
	return uint64(p.DurationTicks+400) * isa.ClockHz / uint64(p.TickHz)
}

// ReadOutcome copies a finished run's simulated outcome into r's metric
// fields: stop state, virtual-clock accounting, the receiver's view of
// the wire, the guest's own counters, and the monitor statistics.
func (s *System) ReadOutcome(r *Result) {
	m, recv := s.M, s.Recv
	r.FaultsInjected = m.FaultsInjected()
	r.PC = m.CPU.PC
	r.ExitCode = m.ExitCode()
	r.Clock = m.Clock()
	r.IdleCycles = m.IdleCycles()
	r.MonitorCycles = m.MonitorCycles()
	r.CPULoad = m.CPULoad()
	if b := m.BusyCycles(); b > 0 {
		r.MonitorShare = float64(m.MonitorCycles()) / float64(b)
	}
	r.AchievedMbps = recv.RateMbps(m.Clock())
	r.Frames = recv.Frames
	r.PayloadBytes = recv.PayloadBytes
	r.Clean = recv.Clean()
	r.NetError = recv.LastError()
	r.Guest = guest.ReadResults(m)
	if s.Mon != nil {
		stats := s.Mon.Stats
		r.VMM = &stats
	}
}
