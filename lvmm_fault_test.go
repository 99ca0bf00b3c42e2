package lvmm

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lvmm/internal/fault"
	"lvmm/internal/fleet"
	"lvmm/internal/replay"
)

// chaosPlan exercises every fault family: frame drop/corrupt/duplicate,
// disk read error and latency spikes, a lost interrupt, and a spurious
// one — all scheduled in simulated quantities only.
func chaosPlan() *FaultPlan {
	return &FaultPlan{
		Name: "chaos",
		Seed: 1905,
		Frames: fault.FrameFaults{
			Drop:      fault.Sched{Ordinals: []uint64{3, 9}},
			Corrupt:   fault.Sched{Every: 17, Start: 5},
			Duplicate: fault.Sched{Ordinals: []uint64{6}},
		},
		Disk: fault.DiskFaults{
			ReadError:     fault.Sched{Ordinals: []uint64{2}},
			Latency:       fault.Sched{Every: 5, Start: 1},
			LatencyCycles: 20_000,
		},
		IRQ: fault.IRQFaults{
			Lost:     fault.Sched{Ordinals: []uint64{25}},
			Spurious: []fault.SpuriousIRQ{{At: 5_000_000, Line: 9}},
		},
	}
}

// faultSweep returns the two-engine recording sweep for one directory.
func faultSweep(dir string) []fleet.Scenario {
	base := fleet.Scenario{
		Name:          "chaos",
		Platform:      fleet.Lightweight,
		RateMbps:      200,
		DurationTicks: 8,
		Fault:         chaosPlan(),
	}
	auto, slow := base, base
	auto.Record = filepath.Join(dir, "auto.trc")
	slow.Engine = fleet.EngineSlow
	slow.Record = filepath.Join(dir, "slow.trc")
	return []fleet.Scenario{auto, slow}
}

// TestFaultPlanRecordsAndReplaysBitIdentically is the fault-injection
// acceptance run: a chaos-plan scenario records on both engines and at
// two parallelism levels; every result pair is bit-identical, every
// trace replays with the recorded faults visible as events, and the
// replayed machine lands on the recorded metrics.
func TestFaultPlanRecordsAndReplaysBitIdentically(t *testing.T) {
	dir1, dir4 := t.TempDir(), t.TempDir()
	res1 := fleet.Runner{Jobs: 1}.Run(context.Background(), faultSweep(dir1))
	res4 := fleet.Runner{Jobs: 4}.Run(context.Background(), faultSweep(dir4))

	for _, r := range append(append([]fleet.Result{}, res1...), res4...) {
		if r.Err != "" {
			t.Fatalf("%s/%s failed: %s", r.Scenario.Name, r.Scenario.Engine, r.Err)
		}
		if r.FaultsInjected == 0 {
			t.Fatalf("%s/%s injected no faults", r.Scenario.Name, r.Scenario.Engine)
		}
		if r.TimedOut {
			t.Fatalf("%s/%s timed out", r.Scenario.Name, r.Scenario.Engine)
		}
	}

	// Engine differential: the slow interpreter must land on the exact
	// simulated outcome of the fused engine, faults included.
	a, s := res1[0], res1[1]
	s.Scenario, s.TracePath = a.Scenario, a.TracePath
	if !reflect.DeepEqual(a, s) {
		t.Errorf("fused and slow engines disagree under faults:\nauto: %+v\nslow: %+v", a, s)
	}

	// Parallelism invariance: results and trace bytes are functions of
	// the scenario only, never of -j.
	for i := range res1 {
		r1, r4 := res1[i], res4[i]
		r4.Scenario, r4.TracePath = r1.Scenario, r1.TracePath
		if !reflect.DeepEqual(r1, r4) {
			t.Errorf("result %d differs across -j:\nj=1: %+v\nj=4: %+v", i, r1, r4)
		}
	}
	for _, name := range []string{"auto.trc", "slow.trc"} {
		b1, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		b4, err := os.ReadFile(filepath.Join(dir4, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b4) {
			t.Errorf("%s bytes differ across -j", name)
		}
	}

	// Replay every trace: the plan travels in metadata, the injected
	// faults appear as events, and the rebuilt machine re-executes to
	// the recorded outcome.
	for i, r := range res1 {
		src, err := replay.OpenSourceFile(r.TracePath, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan := src.Meta().Fault; plan.Empty() || plan.Name != "chaos" {
			src.Close()
			t.Fatalf("%s: fault plan missing from trace metadata", r.TracePath)
		}
		faultEvents := uint64(0)
		for j := 0; j < src.NumEvents(); j++ {
			ev, err := src.Event(j)
			if err != nil {
				src.Close()
				t.Fatal(err)
			}
			if ev.Kind == replay.EvFault {
				faultEvents++
			}
		}
		if faultEvents != r.FaultsInjected {
			t.Errorf("%s: %d fault events in trace, result reports %d injected",
				r.TracePath, faultEvents, r.FaultsInjected)
		}

		rt, err := ReplaySource(src)
		if err != nil {
			src.Close()
			t.Fatal(err)
		}
		if err := rt.Replayer().RunToEnd(); err != nil {
			t.Fatalf("replaying %s: %v", r.TracePath, err)
		}
		if got := rt.Machine().Clock(); got != r.Clock {
			t.Errorf("replay %d landed at cycle %d, recorded run stopped at %d", i, got, r.Clock)
		}
		if got := rt.Receiver().Frames; got != r.Frames {
			t.Errorf("replay %d re-received %d frames, recorded run saw %d", i, got, r.Frames)
		}
		if got := rt.Machine().FaultsInjected(); got != r.FaultsInjected {
			t.Errorf("replay %d re-injected %d faults, recorded run injected %d", i, got, r.FaultsInjected)
		}
		src.Close()
	}
}

// TestFaultyTargetDiffersFromClean pins that the chaos plan actually
// bites: against an identical clean workload, the faulty run must lose
// or damage traffic (the receiver notices) while still completing.
func TestFaultyTargetDiffersFromClean(t *testing.T) {
	w := WorkloadDefaults(200)
	w.Seconds = 0.05

	clean, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Clean {
		t.Fatalf("clean baseline run is not clean: %s", cs.ValidateErr)
	}

	faulty, err := NewStreamingTargetFaulty(Lightweight, w, chaosPlan())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faulty.Run()
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Machine().FaultsInjected() == 0 {
		t.Fatal("faulty target injected nothing")
	}
	if fs.Clean && fs.Segments == cs.Segments {
		t.Errorf("chaos plan left the stream untouched: clean=%v segments=%d (baseline %d)",
			fs.Clean, fs.Segments, cs.Segments)
	}

	// Rejecting an invalid plan happens at construction, not mid-run.
	bad := &FaultPlan{Disk: fault.DiskFaults{Latency: fault.Sched{Every: 2}}}
	if _, err := NewStreamingTargetFaulty(Lightweight, w, bad); err == nil {
		t.Error("invalid plan accepted")
	}
}

// TestReplayRebuildValidatesPlan pins that a replay rebuilds the
// recorded machine through the same builder the recording paths use: a
// trace whose metadata carries a plan Validate refuses (a spurious IRQ
// on line 99 at cycle 0) must be refused by ReplaySource with that
// error, exactly as NewStreamingTargetFaulty and fleet.RunOne refuse it.
func TestReplayRebuildValidatesPlan(t *testing.T) {
	bad := &FaultPlan{Name: "bad", IRQ: fault.IRQFaults{Spurious: []fault.SpuriousIRQ{{At: 0, Line: 99}}}}
	want := bad.Validate()
	if want == nil {
		t.Fatal("the plan under test validates")
	}

	w := WorkloadDefaults(100)
	w.Seconds = 0.02
	if _, err := NewStreamingTargetFaulty(Lightweight, w, bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("NewStreamingTargetFaulty: got %v, want %v", err, want)
	}
	res := fleet.RunOne(context.Background(), fleet.Scenario{RateMbps: 100, DurationTicks: 2, Fault: bad})
	if res.Err != want.Error() {
		t.Fatalf("fleet.RunOne: got %q, want %q", res.Err, want)
	}

	// Record a clean run whose metadata claims the bad plan.
	tg, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	meta := tg.sys.TraceMeta()
	meta.Fault = bad
	var buf bytes.Buffer
	rec, err := replay.NewStreamRecorder(&buf, tg.Machine(), tg.Monitor(), tg.Receiver(), meta, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	if _, err := tg.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.FinishStream(); err != nil {
		t.Fatal(err)
	}

	lt, err := replay.NewLazyTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySource(lt); err == nil || err.Error() != want.Error() {
		t.Fatalf("ReplaySource: got %v, want %v", err, want)
	}
}
