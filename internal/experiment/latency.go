// Package experiment holds the paper's debugging-under-load experiment,
// MeasureDebugLatency, and a shim the benchmark module still builds
// against. Figure 3.1, its headline ratios and the ablation sweeps are
// fleet matrices: fleet.Fig31Matrix, fleet.Summarize and the
// examples/fleet/ablation-*.json files.
package experiment

import (
	"fmt"

	"lvmm/internal/fleet"
	"lvmm/internal/guest"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/rsp"
)

// Debug-responsiveness experiment (ours; quantifies the paper's §1 claim
// of "efficient debugging mechanisms monitoring the OS status even while
// the OS is executing high-throughput I/O operations"): how long after
// the host sends the interrupt byte does the monitor freeze the guest,
// as a function of the I/O load the guest is pushing?

// LatencyPoint is one measurement.
type LatencyPoint struct {
	OfferedMbps float64
	CPULoad     float64
	StopMicros  float64 // virtual µs from interrupt byte to frozen guest
	RegsMicros  float64 // additional virtual µs to read the register file
	Err         string
}

// MeasureDebugLatency boots the streaming guest on the lightweight VMM,
// lets it reach steady state, then measures interrupt-to-stop latency.
func MeasureDebugLatency(rateMbps float64, ticks uint32) LatencyPoint {
	params := guest.DefaultParams(rateMbps)
	params.DurationTicks = ticks
	sys, err := fleet.Boot(fleet.Lightweight, params, 0, nil, nil)
	if err != nil {
		return LatencyPoint{OfferedMbps: rateMbps, Err: err.Error()}
	}
	m, v := sys.M, sys.Mon
	v.EnableDebugStub()

	var reply []byte
	m.Dbg.SetTX(func(b byte) { reply = append(reply, b) })

	// Steady state: run half the configured window.
	warm := uint64(ticks/2) * isa.ClockHz / uint64(params.TickHz)
	if r := m.Run(warm); r != machine.StopLimit {
		return LatencyPoint{OfferedMbps: rateMbps,
			Err: fmt.Sprintf("warmup ended with %v", r)}
	}
	loadBefore := m.CPULoad()

	// Interrupt and run until the guest freezes.
	t0 := m.Clock()
	m.Dbg.InjectRX([]byte{rsp.InterruptByte})
	for i := 0; i < 100000 && !v.Frozen(); i++ {
		m.Run(m.Clock() + 10_000)
	}
	if !v.Frozen() {
		return LatencyPoint{OfferedMbps: rateMbps, Err: "never froze"}
	}
	stopCycles := m.Clock() - t0

	// Time a register read while frozen (command processing latency).
	t1 := m.Clock()
	reply = reply[:0]
	m.Dbg.InjectRX(rsp.Encode([]byte("g")))
	for i := 0; i < 100000; i++ {
		var dec rsp.Decoder
		done := false
		for _, ev := range dec.Feed(reply) {
			if ev.Kind == 'p' {
				done = true
			}
		}
		if done {
			break
		}
		m.Run(m.Clock() + 10_000)
	}
	regsCycles := m.Clock() - t1

	return LatencyPoint{
		OfferedMbps: rateMbps,
		CPULoad:     loadBefore,
		StopMicros:  isa.CyclesToSeconds(stopCycles) * 1e6,
		RegsMicros:  isa.CyclesToSeconds(regsCycles) * 1e6,
	}
}
