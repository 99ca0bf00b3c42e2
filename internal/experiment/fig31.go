// Package experiment regenerates the paper's evaluation: Figure 3.1
// (CPU load vs. transfer rate on real hardware, the lightweight VMM, and
// a conventional hosted VMM) and the derived headline ratios (the
// lightweight VMM transfers ≈5.4× the conventional VMM and ≈26% of real
// hardware), plus the ablation sweeps DESIGN.md calls out.
package experiment

import (
	"context"
	"fmt"
	"strings"

	"lvmm/internal/fleet"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/perfmodel"
)

// Platform identifies one of the three evaluated systems: a fleet
// platform, so a sweep point is a fleet scenario as it stands.
type Platform = fleet.Platform

const (
	BareMetal      = fleet.Bare
	LightweightVMM = fleet.Lightweight
	HostedVMM      = fleet.Hosted
)

// paperLabel names each platform as the paper's figure does.
var paperLabel = map[Platform]string{
	BareMetal:      "real hardware",
	LightweightVMM: "LW virtual machine monitor",
	HostedVMM:      "hosted VMM (VMware-4 stand-in)",
}

// Point is one measurement: a platform at one offered rate.
type Point struct {
	Platform     Platform
	OfferedMbps  float64
	AchievedMbps float64
	CPULoad      float64 // 0..1
	MonitorShare float64 // fraction of busy cycles spent in the monitor
	Segments     uint64
	Clean        bool
	Error        string
	// Monitor statistics (zero for bare metal).
	Traps         uint64
	Injections    uint64
	IRQIntercepts uint64
	Violations    uint64
}

// Options configures a sweep.
type Options struct {
	// Rates are the offered rates in Mb/s. Nil selects the figure's
	// standard sweep.
	Rates []float64
	// DurationTicks per point (default 40 = 0.4 s of virtual time).
	DurationTicks uint32
	// Costs overrides the calibrated cost models (ablations). Nil keeps
	// the defaults.
	LightweightCosts *perfmodel.Costs
	HostedCosts      *perfmodel.Costs
	// Workload tweaks (ablations); zero values keep guest defaults.
	Coalesce     uint32
	SegmentBytes uint32
	// Jobs bounds how many sweep points run concurrently on the fleet
	// worker pool; <= 0 selects GOMAXPROCS. Every point runs on a
	// private machine in virtual time, so the simulated metrics are
	// bit-identical at any parallelism.
	Jobs int
}

// StandardRates is the offered-rate sweep of Figure 3.1 (0-700 Mb/s).
var StandardRates = []float64{10, 25, 50, 75, 100, 150, 200, 300, 400, 500, 600, 660, 700}

// Scenario maps one sweep point onto its fleet scenario: the unit the
// scheduler dispatches and the format sweep matrices are written in.
func Scenario(pf Platform, opts Options, rateMbps float64) fleet.Scenario {
	sc := fleet.Scenario{
		Platform:      pf,
		RateMbps:      rateMbps,
		DurationTicks: opts.DurationTicks,
		SegmentBytes:  opts.SegmentBytes,
		Coalesce:      opts.Coalesce,
	}
	switch pf {
	case LightweightVMM:
		sc.Costs = opts.LightweightCosts
	case HostedVMM:
		sc.Costs = opts.HostedCosts
	}
	sc.Name = fleet.ScenarioName(sc)
	return sc
}

// pointFrom distills a fleet result into the figure's Point, preserving
// the sweep's historical error strings.
func pointFrom(pf Platform, rateMbps float64, res fleet.Result) Point {
	pt := Point{Platform: pf, OfferedMbps: rateMbps}
	if res.Err != "" {
		pt.Error = res.Err
		return pt
	}
	if res.StopReason != machine.StopGuestDone.String() {
		pt.Error = fmt.Sprintf("run ended with %s at pc=%08x", res.StopReason, res.PC)
		return pt
	}
	if res.Guest.ExitCode != 0 {
		pt.Error = fmt.Sprintf("guest exit %#x cause=%s vaddr=%#x",
			res.Guest.ExitCode, isa.CauseName(res.Guest.FatalCause), res.Guest.FatalVaddr)
		return pt
	}
	pt.AchievedMbps = res.AchievedMbps
	pt.CPULoad = res.CPULoad
	pt.Segments = res.Frames
	pt.Clean = res.Clean
	pt.MonitorShare = res.MonitorShare
	if res.VMM != nil {
		pt.Traps = res.VMM.Traps
		pt.Injections = res.VMM.Injections
		pt.IRQIntercepts = res.VMM.IRQsIntercepts
		pt.Violations = res.VMM.Violations
	}
	if !pt.Clean {
		pt.Error = res.NetError
	}
	return pt
}

// RunPoint executes the streaming workload on one platform at one rate.
func RunPoint(pf Platform, opts Options, rateMbps float64) Point {
	return pointFrom(pf, rateMbps,
		fleet.RunOne(context.Background(), Scenario(pf, opts, rateMbps)))
}

// Fig31 holds a complete sweep over the three platforms.
type Fig31 struct {
	Points map[Platform][]Point
	Rates  []float64
}

// RunFig31 reproduces the figure. The sweep's 3×len(rates) points are
// expressed as fleet scenarios and run on the bounded worker pool
// (opts.Jobs); each point's machine is private and clocked in virtual
// cycles, so the figure is bit-identical at any parallelism.
func RunFig31(opts Options) *Fig31 {
	rates := opts.Rates
	if rates == nil {
		rates = StandardRates
	}
	platforms := []Platform{BareMetal, LightweightVMM, HostedVMM}
	scs := make([]fleet.Scenario, 0, len(platforms)*len(rates))
	for _, pf := range platforms {
		for _, r := range rates {
			scs = append(scs, Scenario(pf, opts, r))
		}
	}
	results := fleet.Runner{Jobs: opts.Jobs}.Run(context.Background(), scs)

	f := &Fig31{Points: map[Platform][]Point{}, Rates: rates}
	i := 0
	for _, pf := range platforms {
		for _, r := range rates {
			f.Points[pf] = append(f.Points[pf], pointFrom(pf, r, results[i]))
			i++
		}
	}
	return f
}

// MaxSustained returns the highest achieved rate for a platform across
// the sweep (achieved rates plateau at the platform's saturation point).
func (f *Fig31) MaxSustained(pf Platform) float64 {
	max := 0.0
	for _, p := range f.Points[pf] {
		if p.Error == "" && p.AchievedMbps > max {
			max = p.AchievedMbps
		}
	}
	return max
}

// Summary holds the paper's headline numbers as reproduced.
type Summary struct {
	BareMax, LightweightMax, HostedMax float64
	// LightweightOverHosted is the paper's "5.4 times as fast" claim.
	LightweightOverHosted float64
	// LightweightOverBare is the paper's "about one fourth (26%)" claim.
	LightweightOverBare float64
}

// Summarize computes the headline ratios.
func (f *Fig31) Summarize() Summary {
	s := Summary{
		BareMax:        f.MaxSustained(BareMetal),
		LightweightMax: f.MaxSustained(LightweightVMM),
		HostedMax:      f.MaxSustained(HostedVMM),
	}
	if s.HostedMax > 0 {
		s.LightweightOverHosted = s.LightweightMax / s.HostedMax
	}
	if s.BareMax > 0 {
		s.LightweightOverBare = s.LightweightMax / s.BareMax
	}
	return s
}

// Render produces the figure as text: one row per offered rate with the
// achieved rate and CPU load per platform, plus the summary block,
// mirroring Fig 3.1's series.
func (f *Fig31) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3.1 — CPU load vs transfer rate (1.26 GHz class target)\n\n")
	fmt.Fprintf(&b, "%-10s | %-24s | %-24s | %-24s\n", "offered",
		"real hardware", "LW VMM", "hosted VMM")
	fmt.Fprintf(&b, "%-10s | %-11s %-12s | %-11s %-12s | %-11s %-12s\n",
		"(Mb/s)", "achieved", "CPU load", "achieved", "CPU load", "achieved", "CPU load")
	fmt.Fprintln(&b, strings.Repeat("-", 88))
	for i := range f.Rates {
		row := []Point{f.Points[BareMetal][i], f.Points[LightweightVMM][i], f.Points[HostedVMM][i]}
		fmt.Fprintf(&b, "%-10.0f", f.Rates[i])
		for _, p := range row {
			if p.Error != "" {
				fmt.Fprintf(&b, " | %-24s", "ERROR: "+truncate(p.Error, 17))
				continue
			}
			fmt.Fprintf(&b, " | %7.1f     %5.1f%%      ", p.AchievedMbps, p.CPULoad*100)
		}
		fmt.Fprintln(&b)
	}
	s := f.Summarize()
	fmt.Fprintf(&b, "\nmax sustained: real=%.0f Mb/s  LW VMM=%.0f Mb/s  hosted=%.0f Mb/s\n",
		s.BareMax, s.LightweightMax, s.HostedMax)
	fmt.Fprintf(&b, "LW VMM / hosted VMM = %.2fx   (paper: 5.4x)\n", s.LightweightOverHosted)
	fmt.Fprintf(&b, "LW VMM / real hardware = %.0f%%  (paper: ~26%%)\n", s.LightweightOverBare*100)
	return b.String()
}

// CSV renders the sweep in machine-readable form.
func (f *Fig31) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "platform,offered_mbps,achieved_mbps,cpu_load,monitor_share,segments,clean")
	for _, pf := range []Platform{BareMetal, LightweightVMM, HostedVMM} {
		for _, p := range f.Points[pf] {
			fmt.Fprintf(&b, "%q,%.1f,%.2f,%.4f,%.4f,%d,%v\n",
				paperLabel[pf], p.OfferedMbps, p.AchievedMbps, p.CPULoad, p.MonitorShare, p.Segments, p.Clean)
		}
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
