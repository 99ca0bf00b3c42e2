package experiment

import (
	"lvmm/internal/fleet"
	"lvmm/internal/machine"
)

// The names below are a shim for the benchmark module's fig31_sweep
// workload, which predates fleet.Fig31Matrix and fleet.Summarize.
// Delete them at the next change to bench/, when that workload moves to
// the fleet names.

// Platform is a fleet platform.
type Platform = fleet.Platform

const (
	BareMetal      = fleet.Bare
	LightweightVMM = fleet.Lightweight
	HostedVMM      = fleet.Hosted
)

// StandardRates is fleet.StandardRates.
var StandardRates = fleet.StandardRates

// Options carries the run length of a sweep point.
type Options struct {
	DurationTicks uint32
}

// Scenario is the Figure 3.1 cell for pf at rateMbps.
func Scenario(pf Platform, opts Options, rateMbps float64) fleet.Scenario {
	sc := fleet.Scenario{Platform: pf, RateMbps: rateMbps, DurationTicks: opts.DurationTicks}
	sc.Name = fleet.ScenarioName(sc)
	return sc
}

// Point is one clean sweep point's achieved rate.
type Point struct {
	AchievedMbps float64
}

// Fig31 holds clean sweep points per platform.
type Fig31 struct {
	Points map[Platform][]Point
	Rates  []float64
}

// Summarize computes the headline ratios through fleet.Summarize.
func (f *Fig31) Summarize() fleet.Summary {
	var results []fleet.Result
	for pf, pts := range f.Points {
		for _, p := range pts {
			results = append(results, fleet.Result{
				Scenario:     fleet.Scenario{Platform: pf},
				StopReason:   machine.StopGuestDone.String(),
				Clean:        true,
				AchievedMbps: p.AchievedMbps,
			})
		}
	}
	return fleet.Summarize(results)
}
