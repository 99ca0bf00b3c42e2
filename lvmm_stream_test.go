package lvmm

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"lvmm/internal/fleet"
	"lvmm/internal/perfmodel"
	"lvmm/internal/replay"
)

// goldenPath is a legacy v2 trace of a short lightweight streaming run
// (interrupts, frames, two snapshot windows). Nothing writes v2 any
// more, so the file never changes: it is the proof that old traces keep
// replaying through the opener's v2 transcode.
const goldenPath = "testdata/v2-golden.trc"

// TestV2GoldenReplaysBitIdentically opens the committed legacy-format
// trace, which the opener transcodes to v3 in memory, and replays it:
// the event timeline, final digest, and the re-measured statistics must
// all verify. This pins two invariants at once — the v2 container stays
// readable, and the simulated timeline it recorded stays reproducible.
// (TestReadTraceMetaFile pins that the file is version 2.)
func TestV2GoldenReplaysBitIdentically(t *testing.T) {
	src, err := replay.OpenSourceFile(goldenPath, 0)
	if err != nil {
		t.Fatalf("opener rejected the golden v2 trace: %v", err)
	}
	defer src.Close()
	if n := src.NumCheckpoints(); n < 2 {
		t.Fatalf("golden trace has %d checkpoints, want ≥ 2", n)
	}
	rt, err := ReplaySource(src)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Run()
	if err != nil {
		t.Fatalf("golden v2 trace diverged on replay: %v", err)
	}
	if !stats.Clean {
		t.Fatalf("golden replay stream not clean: %s", stats.ValidateErr)
	}
	_, _, _, endDigest := src.End()
	if got := replay.Digest(rt.Machine(), rt.Monitor()); got != endDigest {
		t.Fatalf("final digest %#x, recorded %#x", got, endDigest)
	}
}

// TestRecordStreamRoundTrip records the streaming workload straight to a
// v3 container (the default hxreplay path) and replays it —
// stats, digest, and timeline all bit-identical, with the trace carrying
// both keyframes and deltas plus a seek index that agrees with the
// payloads it points at.
func TestRecordStreamRoundTrip(t *testing.T) {
	w := WorkloadDefaults(100)
	w.Seconds = 0.2
	target, err := NewStreamingTarget(Lightweight, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := target.RecordStream(&buf, RecordOptions{SnapshotInterval: 30_000_000, KeyframeEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats1, err := target.Run()
	if err != nil {
		t.Fatal(err)
	}
	sstats, err := rec.FinishStream()
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Deltas == 0 {
		t.Fatal("streamed recording produced no delta snapshots")
	}

	lt := openTrace(t, buf.Bytes())
	sr := lt.Reader()
	if len(sr.Segments()) != sstats.Segments {
		t.Fatalf("seek index lists %d segments, recorder wrote %d", len(sr.Segments()), sstats.Segments)
	}
	events, snaps := 0, 0
	for i, sg := range sr.Segments() {
		switch {
		case sg.IsEvents():
			batch, err := sr.DecodeEvents(i)
			if err != nil {
				t.Fatal(err)
			}
			events += len(batch)
		case sg.IsSnapshot():
			if _, err := sr.DecodeCheckpoint(i); err != nil {
				t.Fatal(err)
			}
			snaps++
		}
	}
	if events != sstats.Events || snaps != sstats.Keyframes+sstats.Deltas {
		t.Fatalf("container disagrees with the recorder: %d/%d events, %d/%d snapshots",
			events, sstats.Events, snaps, sstats.Keyframes+sstats.Deltas)
	}

	rt := replayTrace(t, buf.Bytes())
	stats2, err := rt.Run()
	if err != nil {
		t.Fatalf("streamed trace diverged on replay: %v", err)
	}
	if stats1 != stats2 {
		t.Fatalf("stats differ:\n  recorded: %v\n  replayed: %v", stats1, stats2)
	}

	// Time travel across delta boundaries on the replayed target.
	rp := rt.Replayer()
	last := lt.CheckpointMeta(lt.NumCheckpoints() - 1)
	if err := rp.SeekInstr(last.Instr + 100); err != nil {
		t.Fatal(err)
	}
	if err := rp.ReverseStep(last.Instr/2 + 100); err != nil {
		t.Fatal(err)
	}
	if err := rp.SeekInstr(sstats.EndInstr); err != nil {
		t.Fatal(err)
	}
	if got := replay.Digest(rt.Machine(), rt.Monitor()); got != sstats.EndDigest {
		t.Fatalf("post-time-travel end digest %#x, recorded %#x", got, sstats.EndDigest)
	}
}

// TestFleetRecordedTraceReplays runs a seeded fleet scenario with the
// Record option and replays the streamed trace through the public
// ReplaySource path — proving the trace metadata (platform, resolved
// params, content seed) reconstructs the exact machine the fleet worker
// ran.
func TestFleetRecordedTraceReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.trc")
	sc := fleet.Scenario{
		Platform:      fleet.Lightweight,
		RateMbps:      80,
		DurationTicks: 20,
		Seed:          7,
		Record:        path,
	}
	res := fleet.RunOne(context.Background(), sc)
	if res.Err != "" {
		t.Fatalf("fleet run failed: %s", res.Err)
	}
	if res.TracePath != path || res.TraceBytes == 0 {
		t.Fatalf("missing trace report: path=%q bytes=%d", res.TracePath, res.TraceBytes)
	}

	src, err := replay.OpenSourceFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if seed := src.Meta().Seed; seed != 7 {
		t.Fatalf("trace seed %d, want 7", seed)
	}
	rt, err := ReplaySource(src)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Run()
	if err != nil {
		t.Fatalf("fleet-recorded trace diverged: %v", err)
	}
	if !stats.Clean {
		t.Fatalf("replayed stream not clean: %s", stats.ValidateErr)
	}
	if got := stats.AchievedMbps; got != res.AchievedMbps {
		t.Fatalf("replayed %.6f Mb/s, fleet measured %.6f", got, res.AchievedMbps)
	}

	// A Costs override cannot be reconstructed from metadata; such traces
	// must be refused by the public path, not replayed wrongly.
	costs := perfmodel.Lightweight()
	costs.WorldSwitchIn *= 2
	scC := sc
	scC.Record = filepath.Join(t.TempDir(), "custom.trc")
	scC.Costs = &costs
	resC := fleet.RunOne(context.Background(), scC)
	if resC.Err != "" {
		t.Fatalf("costs-override run failed: %s", resC.Err)
	}
	srcC, err := replay.OpenSourceFile(scC.Record, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srcC.Close()
	if !srcC.Meta().Custom {
		t.Fatal("costs-override trace not marked custom")
	}
	if _, err := ReplaySource(srcC); err == nil {
		t.Fatal("ReplaySource accepted a custom trace it cannot reconstruct")
	}
}

// TestAblationChecksumOffload is the checksum-offload ablation: on bare
// metal at 200 Mb/s, computing UDP checksums in guest software (what the
// hosted monitor's feature-poor virtual NIC forces) must cost the guest
// strictly more CPU than offloading them to the NIC.
func TestAblationChecksumOffload(t *testing.T) {
	load := func(offload bool) float64 {
		w := WorkloadDefaults(200)
		w.Seconds = 0.4
		w.CsumOffload = offload
		target, err := NewStreamingTarget(BareMetal, w)
		if err != nil {
			t.Fatal(err)
		}
		defer target.Release()
		stats, err := target.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Clean {
			t.Fatalf("offload=%v: stream not clean: %s", offload, stats.ValidateErr)
		}
		return stats.CPULoad
	}
	offloaded, software := load(true), load(false)
	if software <= offloaded {
		t.Errorf("software checksums load the CPU %.2f%%, offloaded %.2f%%: want software strictly higher",
			100*software, 100*offloaded)
	}
}
