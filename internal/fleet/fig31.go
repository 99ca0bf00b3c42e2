package fleet

import (
	"fmt"

	"lvmm/internal/machine"
)

// StandardRates is the offered-rate sweep of Figure 3.1 (0-700 Mb/s).
var StandardRates = []float64{10, 25, 50, 75, 100, 150, 200, 300, 400, 500, 600, 660, 700}

// Fig31Matrix is the paper's Figure 3.1 as a matrix: every platform at
// every offered rate, ticks pacing ticks per point. Nil rates selects
// StandardRates.
func Fig31Matrix(ticks uint32, rates []float64) *Matrix {
	if rates == nil {
		rates = StandardRates
	}
	return &Matrix{
		Defaults:  Scenario{DurationTicks: ticks},
		Platforms: append([]Platform(nil), platforms[:]...),
		Rates:     append([]float64(nil), rates...),
	}
}

// Summary holds the paper's headline numbers as a sweep reproduces them.
type Summary struct {
	BareMax, LightweightMax, HostedMax float64
	// LightweightOverHosted is the paper's "5.4 times as fast" claim.
	LightweightOverHosted float64
	// LightweightOverBare is the paper's "about one fourth (26%)" claim.
	LightweightOverBare float64
}

// Summarize computes the headline ratios from a sweep's results. A
// platform's max sustained rate is its highest achieved rate over the
// runs that finished cleanly: no error, the guest reported done with
// exit code 0, and the receiver validated the whole stream. Achieved
// rates plateau at the platform's saturation point, so the maximum is
// that point.
func Summarize(results []Result) Summary {
	var max [len(platforms)]float64
	for _, r := range results {
		if r.Err != "" || r.StopReason != machine.StopGuestDone.String() ||
			r.Guest.ExitCode != 0 || !r.Clean {
			continue
		}
		pf := r.Scenario.Platform
		if pf == "" {
			pf = Lightweight
		}
		if i := pf.Index(); i >= 0 && r.AchievedMbps > max[i] {
			max[i] = r.AchievedMbps
		}
	}
	s := Summary{BareMax: max[0], LightweightMax: max[1], HostedMax: max[2]}
	if s.HostedMax > 0 {
		s.LightweightOverHosted = s.LightweightMax / s.HostedMax
	}
	if s.BareMax > 0 {
		s.LightweightOverBare = s.LightweightMax / s.BareMax
	}
	return s
}

// Render prints the summary beside the paper's figures.
func (s Summary) Render() string {
	return fmt.Sprintf("max sustained: real=%.0f Mb/s  LW VMM=%.0f Mb/s  hosted=%.0f Mb/s\n"+
		"LW VMM / hosted VMM = %.2fx   (paper: 5.4x)\n"+
		"LW VMM / real hardware = %.0f%%  (paper: ~26%%)\n",
		s.BareMax, s.LightweightMax, s.HostedMax,
		s.LightweightOverHosted, s.LightweightOverBare*100)
}
