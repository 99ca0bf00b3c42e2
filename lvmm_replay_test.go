package lvmm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"lvmm/internal/cpu"
	"lvmm/internal/debugger"
	"lvmm/internal/guest"
	"lvmm/internal/replay"
)

// memHash condenses guest physical memory.
func memHash(t *Target) uint64 {
	h := fnv.New64a()
	h.Write(t.Machine().Bus.RAM())
	return h.Sum64()
}

// recordRun runs target to completion under a recorder streaming into
// memory, and returns the sealed trace bytes and the run's statistics.
func recordRun(t *testing.T, target *Target, opts RecordOptions) ([]byte, RunStats) {
	t.Helper()
	var buf bytes.Buffer
	rec, err := target.RecordStream(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := target.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.FinishStream(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// openTrace opens trace bytes through the one trace opener.
func openTrace(t *testing.T, data []byte) *replay.LazyTrace {
	t.Helper()
	lt, err := replay.NewLazyTrace(bytes.NewReader(data), int64(len(data)), 0)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

// replayTrace rebuilds the recorded target from trace bytes, on a source
// of its own: live checkpoints a session inserts stay in its source.
func replayTrace(t *testing.T, data []byte) *ReplayTarget {
	t.Helper()
	rt, err := ReplaySource(openTrace(t, data))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// residentCopy rebuilds an opened trace as a replay.Trace through the
// source's accessors, for tests that rewrite a recorded timeline.
func residentCopy(t *testing.T, lt *replay.LazyTrace) *replay.Trace {
	t.Helper()
	tr := &replay.Trace{Meta: lt.Meta()}
	tr.EndCycle, tr.EndInstr, tr.EndReason, tr.EndDigest = lt.End()
	for i := 0; i < lt.NumEvents(); i++ {
		ev, err := lt.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		tr.Events = append(tr.Events, ev)
	}
	for i := 0; i < lt.NumCheckpoints(); i++ {
		cp, err := lt.Checkpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		tr.Checkpoints = append(tr.Checkpoints, *cp)
	}
	return tr
}

// endDigest is the recorded final state digest of a trace.
func endDigest(lt *replay.LazyTrace) uint64 {
	_, _, _, d := lt.End()
	return d
}

// TestRecordReplayBitIdentical is the tentpole determinism property: a
// recorded streaming run replays bit-identically — same final statistics,
// register file, memory hash, and cycle count.
func TestRecordReplayBitIdentical(t *testing.T) {
	w := WorkloadDefaults(100)
	w.Seconds = 0.2
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	data, stats1 := recordRun(t, target, RecordOptions{SnapshotInterval: 60_000_000})

	lt := openTrace(t, data)
	if lt.NumCheckpoints() < 2 {
		t.Fatalf("expected a mid-run snapshot, got %d checkpoints", lt.NumCheckpoints())
	}
	if lt.NumEvents() == 0 {
		t.Fatal("no events recorded")
	}

	rt := replayTrace(t, data)
	stats2, err := rt.Run()
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}

	if stats1 != stats2 {
		t.Fatalf("stats differ:\n  recorded: %v\n  replayed: %v", stats1, stats2)
	}
	if target.Machine().CPU.Regs != rt.Machine().CPU.Regs {
		t.Fatalf("register files differ:\n  recorded: %v\n  replayed: %v",
			target.Machine().CPU.Regs, target.Machine().CPU.Regs)
	}
	if target.Machine().CPU.PC != rt.Machine().CPU.PC {
		t.Fatalf("PC differs: %08x vs %08x", target.Machine().CPU.PC, rt.Machine().CPU.PC)
	}
	if memHash(target) != memHash(rt.Target) {
		t.Fatal("memory hashes differ")
	}
	if target.Machine().Clock() != rt.Machine().Clock() {
		t.Fatalf("clocks differ: %d vs %d", target.Machine().Clock(), rt.Machine().Clock())
	}
	if got, want := replay.Digest(rt.Machine(), rt.Monitor()), endDigest(lt); got != want {
		t.Fatalf("digest %#x, recorded %#x", got, want)
	}
}

// TestReverseStepAcrossSnapshotBoundary drives the replay engine directly:
// seek to a position after the second mid-run snapshot, reverse-step far
// enough to land in an earlier snapshot's window, and verify that
// re-seeking forward reproduces the exact state (digest includes RAM,
// registers, clock, and cycle accounting).
func TestReverseStepAcrossSnapshotBoundary(t *testing.T) {
	w := WorkloadDefaults(80)
	w.Seconds = 0.2
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := recordRun(t, target, RecordOptions{SnapshotInterval: 40_000_000})
	lt := openTrace(t, data)
	if lt.NumCheckpoints() < 3 {
		t.Fatalf("need ≥3 checkpoints, got %d", lt.NumCheckpoints())
	}

	rt := replayTrace(t, data)
	rp := rt.Replayer()

	cp1, cp2 := lt.CheckpointMeta(1).Instr, lt.CheckpointMeta(2).Instr
	posA := cp2 + 500
	if err := rp.SeekInstr(posA); err != nil {
		t.Fatal(err)
	}
	digA := replay.Digest(rt.Machine(), rt.Monitor())
	clockA := rt.Machine().Clock()

	// Step back across the checkpoint-2 boundary into checkpoint 1's window.
	n := posA - cp1 - (cp2-cp1)/2
	if err := rp.ReverseStep(n); err != nil {
		t.Fatal(err)
	}
	posB := rp.Position()
	if posB != posA-n {
		t.Fatalf("reverse-step landed at %d, want %d", posB, posA-n)
	}
	if posB >= cp2 || posB < cp1 {
		t.Fatalf("landing %d did not cross the snapshot boundary (cp1=%d cp2=%d)", posB, cp1, cp2)
	}
	digB := replay.Digest(rt.Machine(), rt.Monitor())

	// Forward again: the state at posA must reproduce exactly.
	if err := rp.SeekInstr(posA); err != nil {
		t.Fatal(err)
	}
	if got := replay.Digest(rt.Machine(), rt.Monitor()); got != digA {
		t.Fatalf("re-seek to %d: digest %#x, want %#x", posA, got, digA)
	}
	if rt.Machine().Clock() != clockA {
		t.Fatalf("re-seek clock %d, want %d", rt.Machine().Clock(), clockA)
	}

	// And backwards once more: same landing, same state.
	if err := rp.SeekInstr(posB); err != nil {
		t.Fatal(err)
	}
	if got := replay.Digest(rt.Machine(), rt.Monitor()); got != digB {
		t.Fatalf("re-seek to %d: digest %#x, want %#x", posB, got, digB)
	}
	if rp.Err() != nil {
		t.Fatalf("unexpected divergence: %v", rp.Err())
	}
}

// TestTimeTravelEndToEnd exercises reverse-continue and reverse-step
// through the full debugger stack — REPL → RSP client → RSP bs/bc packets
// → monitor-resident stub → replay engine — against a trace with mid-run
// snapshots. It travels backwards through the guest's tick counter.
func TestTimeTravelEndToEnd(t *testing.T) {
	w := WorkloadDefaults(50)
	w.Seconds = 0.15
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := recordRun(t, target, RecordOptions{SnapshotInterval: 40_000_000})
	if n := openTrace(t, data).NumCheckpoints(); n < 2 {
		t.Fatalf("need a mid-run snapshot, got %d checkpoints", n)
	}

	rt := replayTrace(t, data)
	dbg, err := rt.Debugger()
	if err != nil {
		t.Fatal(err)
	}
	img := guest.Kernel()
	tickH, ok := img.Symbols["tick_h"]
	if !ok {
		t.Fatal("kernel image has no tick_h symbol")
	}
	ticksVar := img.Symbols["ticks"]

	// Drive the replayed guest forward to the tenth tick-handler entry,
	// deep enough into the run that there is history to travel back into.
	if err := dbg.SetBreak(tickH, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		stop, err := dbg.Continue()
		if err != nil {
			t.Fatal(err)
		}
		if stop.Signal != 5 {
			t.Fatalf("continue %d: signal %d", i, stop.Signal)
		}
	}

	// RSP client level: reverse-continue lands on the recorded timeline's
	// previous tick_h crossing.
	if _, err := dbg.ReverseContinue(); err != nil {
		t.Fatal(err)
	}
	regs, err := dbg.Regs()
	if err != nil {
		t.Fatal(err)
	}
	if regs[16] != tickH {
		t.Fatalf("reverse-continue landed at pc=%08x, want tick_h=%08x", regs[16], tickH)
	}
	ticks1, err := dbg.ReadWord(ticksVar)
	if err != nil {
		t.Fatal(err)
	}

	// A second reverse-continue reaches the tick before that.
	if _, err := dbg.ReverseContinue(); err != nil {
		t.Fatal(err)
	}
	regs, _ = dbg.Regs()
	if regs[16] != tickH {
		t.Fatalf("second reverse-continue at pc=%08x, want tick_h", regs[16])
	}
	ticks2, _ := dbg.ReadWord(ticksVar)
	if ticks2 != ticks1-1 {
		t.Fatalf("travelling back one tick: ticks went %d -> %d, want %d", ticks1, ticks2, ticks1-1)
	}

	// Reverse-step via the client: position moves back by exactly one.
	posBefore := rt.Replayer().Position()
	if _, err := dbg.ReverseStepInstr(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Replayer().Position(); got != posBefore-1 {
		t.Fatalf("reverse-step: position %d, want %d", got, posBefore-1)
	}

	// Watchpoint time travel: land just after the previous store to the
	// tick counter.
	if err := dbg.ClearBreak(tickH, false); err != nil {
		t.Fatal(err)
	}
	if err := dbg.SetWatch(ticksVar, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.ReverseContinue(); err != nil {
		t.Fatal(err)
	}
	ticks3, _ := dbg.ReadWord(ticksVar)
	if ticks3 != ticks2 {
		t.Fatalf("watch landing: ticks=%d, want %d (value the previous store wrote)", ticks3, ticks2)
	}
	if err := dbg.ClearWatch(ticksVar); err != nil {
		t.Fatal(err)
	}

	// REPL level: rstep, checkpoint, rcont.
	var out bytes.Buffer
	repl := debugger.NewREPL(dbg, &out)
	repl.LoadSymbols(img)
	if err := repl.Execute("b tick_h"); err != nil {
		t.Fatal(err)
	}
	if err := repl.Execute("checkpoint"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkpoint at instruction") {
		t.Fatalf("checkpoint output: %q", out.String())
	}
	out.Reset()
	if err := repl.Execute("rstep"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stopped (signal 5)") {
		t.Fatalf("rstep output: %q", out.String())
	}
	out.Reset()
	if err := repl.Execute("rcont"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<tick_h>") {
		t.Fatalf("rcont did not land on tick_h: %q", out.String())
	}
}

// TestCrossEngineRecordReplay proves the batched predecoded engine and the
// per-instruction slow path produce the same timeline: a trace recorded
// under one engine must replay bit-identically under the other. The slow
// path is pinned with the CPU's explicit force-slow knob — timeline-
// neutral, disqualifying bursts (cpu.BurstSafe), i.e. the seed-equivalent
// engine.
func TestCrossEngineRecordReplay(t *testing.T) {
	record := func(slow bool) (*replay.LazyTrace, []byte, RunStats) {
		w := WorkloadDefaults(100)
		w.Seconds = 0.15
		target, err := NewStreamingTarget(Lightweight, w)
		if err != nil {
			t.Fatal(err)
		}
		if slow {
			target.Machine().CPU.ForceSlowEngine(true)
		}
		data, stats := recordRun(t, target, RecordOptions{SnapshotInterval: 60_000_000})
		return openTrace(t, data), data, stats
	}
	rerun := func(data []byte, slow bool) (RunStats, *ReplayTarget) {
		rt := replayTrace(t, data)
		if slow {
			rt.Machine().CPU.ForceSlowEngine(true)
		}
		stats, err := rt.Run()
		if err != nil {
			t.Fatalf("cross-engine replay (slow=%v) diverged: %v", slow, err)
		}
		return stats, rt
	}

	// Record slow (seed path), replay fast (batched engine).
	trSlow, dataSlow, statsSlow := record(true)
	if trSlow.NumEvents() == 0 {
		t.Fatal("no events recorded")
	}
	gotFast, rtFast := rerun(dataSlow, false)
	if gotFast != statsSlow {
		t.Fatalf("slow-recorded trace under batched engine:\n  recorded: %v\n  replayed: %v", statsSlow, gotFast)
	}
	if got := replay.Digest(rtFast.Machine(), rtFast.Monitor()); got != endDigest(trSlow) {
		t.Fatalf("digest %#x, recorded %#x", got, endDigest(trSlow))
	}

	// Record fast, replay slow — and the two recordings must agree with
	// each other tick for tick.
	trFast, dataFast, statsFast := record(false)
	if statsFast != statsSlow {
		t.Fatalf("engines recorded different runs:\n  slow: %v\n  fast: %v", statsSlow, statsFast)
	}
	sc, si, _, sd := trSlow.End()
	fc, fi, _, fd := trFast.End()
	if fc != sc || fi != si || fd != sd || trFast.NumEvents() != trSlow.NumEvents() {
		t.Fatalf("timelines differ: slow (cycle=%d instr=%d digest=%#x events=%d), fast (cycle=%d instr=%d digest=%#x events=%d)",
			sc, si, sd, trSlow.NumEvents(), fc, fi, fd, trFast.NumEvents())
	}
	gotSlow, _ := rerun(dataFast, true)
	if gotSlow != statsFast {
		t.Fatalf("fast-recorded trace under slow engine:\n  recorded: %v\n  replayed: %v", statsFast, gotSlow)
	}
}

// TestRecordOnChainedTierReplaysOnSlow is the superblock-specific half of
// the cross-engine guarantee: the recording machine must actually have run
// chained superblocks (not just the per-instruction fast path), and that
// trace must still replay bit-identically on the forced-slow seed engine.
// Without the SBStats assertion, a tier that silently never engages would
// pass TestCrossEngineRecordReplay vacuously.
func TestRecordOnChainedTierReplaysOnSlow(t *testing.T) {
	for _, runs := range []uint32{32, 1} {
		t.Run(fmt.Sprintf("native-at-%d-runs", runs), func(t *testing.T) {
			defer cpu.SetNativeThreshold(cpu.SetNativeThreshold(runs))
			recordOnChainedTierReplaysOnSlow(t)
		})
	}
}

func recordOnChainedTierReplaysOnSlow(t *testing.T) {
	w := WorkloadDefaults(100)
	w.Seconds = 0.15
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	data, stats := recordRun(t, target, RecordOptions{SnapshotInterval: 60_000_000})

	sb := target.Machine().CPU.SBStats()
	if sb.Runs == 0 || sb.ChainHits == 0 {
		t.Fatalf("recording never engaged the chained superblock tier: %+v", sb)
	}
	if runtime.GOARCH == "amd64" && sb.NativeRuns == 0 {
		t.Fatalf("recording never ran native blocks: %+v", sb)
	}

	rt := replayTrace(t, data)
	rt.Machine().CPU.ForceSlowEngine(true)
	got, err := rt.Run()
	if err != nil {
		t.Fatalf("chained-tier trace diverged on the slow engine: %v", err)
	}
	if got != stats {
		t.Fatalf("slow replay of chained recording:\n  recorded: %v\n  replayed: %v", stats, got)
	}
	if d, want := replay.Digest(rt.Machine(), rt.Monitor()), endDigest(openTrace(t, data)); d != want {
		t.Fatalf("end digest %#x, recorded %#x", d, want)
	}
	if slow := rt.Machine().CPU.SBStats(); slow.Runs != 0 {
		t.Fatalf("forced-slow replay still ran superblocks: %+v", slow)
	}
}

// TestRecordWithArmedBreakpointReplays records a run with a hardware
// breakpoint armed on an address the workload never executes — the
// page-granular promise is that arming it changes nothing: the recording
// stays on the burst engine, its metrics match an unarmed recording
// bit-for-bit, and the trace (whose snapshots carry the armed slot)
// replays bit-identically on both engines.
func TestRecordWithArmedBreakpointReplays(t *testing.T) {
	const coldBreak = 0xE0000

	record := func(arm bool) ([]byte, RunStats, uint64) {
		w := WorkloadDefaults(100)
		w.Seconds = 0.15
		target, err := NewStreamingTarget(Lightweight, w)
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			if err := target.Machine().CPU.SetHWBreak(0, coldBreak, true); err != nil {
				t.Fatal(err)
			}
		}
		data, stats := recordRun(t, target, RecordOptions{SnapshotInterval: 60_000_000})
		return data, stats, target.Machine().CPU.BurstTicks()
	}

	trArmed, statsArmed, burstArmed := record(true)
	_, statsClean, burstClean := record(false)
	if statsArmed != statsClean {
		t.Fatalf("armed breakpoint perturbed the recording:\n  armed:   %v\n  unarmed: %v", statsArmed, statsClean)
	}
	if burstClean == 0 {
		t.Fatal("unarmed recording never burst")
	}
	if burstArmed != burstClean {
		t.Fatalf("armed recording burst %d ticks, unarmed %d: breakpoint knocked the recorder off the fast engine", burstArmed, burstClean)
	}

	armedDigest := endDigest(openTrace(t, trArmed))
	for _, slow := range []bool{false, true} {
		rt := replayTrace(t, trArmed)
		if slow {
			rt.Machine().CPU.ForceSlowEngine(true)
		}
		got, err := rt.Run()
		if err != nil {
			t.Fatalf("armed-trace replay (slow=%v) diverged: %v", slow, err)
		}
		if got != statsArmed {
			t.Fatalf("armed-trace replay (slow=%v):\n  recorded: %v\n  replayed: %v", slow, statsArmed, got)
		}
		if d := replay.Digest(rt.Machine(), rt.Monitor()); d != armedDigest {
			t.Fatalf("armed-trace replay (slow=%v) digest %#x, recorded %#x", slow, d, armedDigest)
		}
	}
}

// TestReplayDivergenceDetection tampers with a recorded timeline and
// checks that replay reports the divergence instead of silently passing.
func TestReplayDivergenceDetection(t *testing.T) {
	w := WorkloadDefaults(50)
	w.Seconds = 0.1
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := recordRun(t, target, RecordOptions{})
	tr := residentCopy(t, openTrace(t, data))

	// Shift one recorded interrupt by a cycle.
	tampered := false
	for i := range tr.Events {
		if tr.Events[i].Kind == replay.EvIRQ {
			tr.Events[i].Cycle++
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no IRQ event to tamper with")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	rt := replayTrace(t, buf.Bytes())
	if _, err := rt.Run(); err == nil {
		t.Fatal("tampered trace replayed without a divergence error")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBareMetalRecordReplay covers the monitor-less configuration (nil
// VMM snapshot through serialization included).
func TestBareMetalRecordReplay(t *testing.T) {
	w := WorkloadDefaults(50)
	w.Seconds = 0.1
	target, err := NewStreamingTarget(BareMetal, w)
	if err != nil {
		t.Fatal(err)
	}
	data, stats1 := recordRun(t, target, RecordOptions{})

	rt := replayTrace(t, data)
	stats2, err := rt.Run()
	if err != nil {
		t.Fatalf("bare-metal replay diverged: %v", err)
	}
	if stats1 != stats2 {
		t.Fatalf("stats differ:\n  recorded: %v\n  replayed: %v", stats1, stats2)
	}
}

// TestRecordReplayWithDebugSession records a run that includes external
// input — a debug session over the deterministic in-process transport —
// and replays it bit-identically, re-injecting the recorded RSP bytes at
// their recorded cycles.
func TestRecordReplayWithDebugSession(t *testing.T) {
	w := WorkloadDefaults(50)
	w.Seconds = 0.1
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := target.RecordStream(&buf, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// A scripted debug session in the middle of the recorded run: stop
	// the guest, look around, resume.
	dbg, err := target.Debugger()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.Interrupt(); err != nil {
		t.Fatal(err)
	}
	if _, err := dbg.Regs(); err != nil {
		t.Fatal(err)
	}
	if err := dbg.Detach(); err != nil {
		t.Fatal(err)
	}

	stats1, err := target.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.FinishStream(); err != nil {
		t.Fatal(err)
	}

	if in, err := openTrace(t, buf.Bytes()).NextInput(0); err != nil || in < 0 {
		t.Fatalf("debug session recorded no input events (%v)", err)
	}

	rt := replayTrace(t, buf.Bytes())
	stats2, err := rt.Run()
	if err != nil {
		t.Fatalf("replay with inputs diverged: %v", err)
	}
	if stats1 != stats2 {
		t.Fatalf("stats differ:\n  recorded: %v\n  replayed: %v", stats1, stats2)
	}
}

// TestTraceSerializationRoundTrip checks the versioned trace file
// format from both ends: an opened recording rebuilt through the
// source's accessors and written by Trace.Write, the sequential writer,
// is the recorded container byte for byte, and the rewrite replays.
func TestTraceSerializationRoundTrip(t *testing.T) {
	w := WorkloadDefaults(50)
	w.Seconds = 0.1
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := recordRun(t, target, RecordOptions{SnapshotInterval: 60_000_000})

	var buf bytes.Buffer
	if err := residentCopy(t, openTrace(t, data)).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("trace round trip changed the container (%d bytes, recorded %d)", buf.Len(), len(data))
	}

	rt := replayTrace(t, buf.Bytes())
	if _, err := rt.Run(); err != nil {
		t.Fatalf("replay from the rewritten trace diverged: %v", err)
	}
}

// TestBlockCountersDeterministic: the superblock tier's counters, the
// native tier's included, are derived from the run alone — two identical recorded runs report the
// same counters — and stay out of the trace: both recordings, and one
// made on the forced-slow engine, where the tier never runs, are the same
// bytes.
func TestBlockCountersDeterministic(t *testing.T) {
	record := func(slow bool) ([]byte, cpu.SBStats) {
		w := WorkloadDefaults(300)
		w.Seconds = 0.1
		target, err := NewStreamingTarget(Lightweight, w)
		if err != nil {
			t.Fatal(err)
		}
		defer target.Release()
		target.Machine().CPU.ForceSlowEngine(slow)
		data, _ := recordRun(t, target, RecordOptions{SnapshotInterval: 40_000_000})
		return data, target.Machine().CPU.SBStats()
	}
	a, sa := record(false)
	b, sb := record(false)
	if sa != sb {
		t.Fatalf("identical runs, different counters:\n  %v\n  %v", sa, sb)
	}
	if sa.MemInline == 0 || sa.ChainHits == 0 {
		t.Fatalf("the run never ran memory ops inline in chained blocks: %v", sa)
	}
	if runtime.GOARCH == "amd64" && (sa.NativeBlocks == 0 || sa.NativeBytes == 0 || sa.NativeRuns == 0 ||
		sa.NativeExitTLB+sa.NativeExitEnvelope+sa.NativeExitSMC+sa.NativeExitRange == 0) {
		t.Fatalf("the run never compiled, entered and left native blocks: %v", sa)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs recorded different trace bytes")
	}
	slow, ss := record(true)
	if ss.Runs != 0 || ss.NativeBlocks != 0 {
		t.Fatalf("forced-slow run entered or compiled blocks: %v", ss)
	}
	if !bytes.Equal(a, slow) {
		t.Fatal("the block tier changed the trace bytes")
	}
}
