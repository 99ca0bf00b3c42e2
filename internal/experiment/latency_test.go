package experiment

import (
	"context"
	"testing"

	"lvmm/internal/fleet"
)

// TestDebugLatencyUnderLoad: the monitor-resident stub stops the guest
// within tens of virtual milliseconds even at full I/O saturation — the
// paper's "debug during high-throughput I/O" property, quantified.
func TestDebugLatencyUnderLoad(t *testing.T) {
	rates := []float64{25, 150, 700}
	pts := make([]LatencyPoint, len(rates))
	fleet.Runner{}.ForEach(context.Background(), len(rates), func(i int) {
		pts[i] = MeasureDebugLatency(rates[i], 40)
	})
	for _, p := range pts {
		if p.Err != "" {
			t.Fatalf("%.0f Mb/s: %s", p.OfferedMbps, p.Err)
		}
		// Stop latency bounded by the poll granularity plus one monitor
		// crossing: well under 50 virtual ms even saturated.
		if p.StopMicros > 50_000 {
			t.Errorf("%.0f Mb/s: stop latency %.0f µs", p.OfferedMbps, p.StopMicros)
		}
		if p.RegsMicros > 50_000 {
			t.Errorf("%.0f Mb/s: regs latency %.0f µs", p.OfferedMbps, p.RegsMicros)
		}
	}
	// Responsiveness must not collapse with load: saturated stop latency
	// within 100x of idle-ish latency.
	if pts[2].StopMicros > pts[0].StopMicros*100 {
		t.Errorf("latency collapsed under load: %.0f µs vs %.0f µs",
			pts[2].StopMicros, pts[0].StopMicros)
	}
}
