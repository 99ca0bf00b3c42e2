package replay

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/machine"
	"lvmm/internal/vmm"
)

// buildTrapDense boots the trap-dense kernel (fused_test.go) under the
// lightweight monitor, optionally forcing the slow engine. testing.TB so
// fuzz targets can build seed traces from their *testing.F.
func buildTrapDense(t testing.TB, slow bool) (*machine.Machine, *vmm.VMM) {
	t.Helper()
	img, err := asm.Assemble(trapDenseKernel)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := v.Launch(img.Entry); err != nil {
		t.Fatal(err)
	}
	if slow {
		m.CPU.ForceSlowEngine(true)
	}
	return m, v
}

// TestStreamedTrapDenseCrossEngine is the acceptance property for the
// streaming container: a trap-dense v3 trace streamed from the fused
// engine replays bit-identically on both engines after a round trip
// through the segmented format, and reverse operations work against it.
func TestStreamedTrapDenseCrossEngine(t *testing.T) {
	var buf bytes.Buffer
	m, v := buildTrapDense(t, false)
	rec, err := NewStreamRecorder(&buf, m, v, nil, TraceMeta{Custom: true},
		Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3, EventBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
		t.Fatalf("record: stop %v pc=%08x", reason, m.CPU.PC)
	}
	stats, err := rec.FinishStream()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deltas == 0 || stats.Keyframes < 2 {
		t.Fatalf("expected a keyframe/delta mix, got %d keyframes, %d deltas", stats.Keyframes, stats.Deltas)
	}
	if int64(buf.Len()) != stats.BytesWritten {
		t.Fatalf("BytesWritten %d, stream holds %d", stats.BytesWritten, buf.Len())
	}

	data := buf.Bytes()
	tr := readBack(t, data)
	if tr.EndDigest != stats.EndDigest || tr.EndInstr != stats.EndInstr || len(tr.Events) != stats.Events {
		t.Fatalf("read-back mismatch: end digest %#x/%#x, instr %d/%d, events %d/%d",
			tr.EndDigest, stats.EndDigest, tr.EndInstr, stats.EndInstr, len(tr.Events), stats.Events)
	}
	if segs := lazyOpen(t, data, 0).Reader().Segments(); len(segs) != stats.Segments {
		t.Fatalf("segment index lists %d, recorder reported %d", len(segs), stats.Segments)
	}

	for _, slow := range []bool{false, true} {
		m2, v2 := buildTrapDense(t, slow)
		if err := replayerFor(t, data, m2, v2, nil).RunToEnd(); err != nil {
			t.Fatalf("streamed trace replay (slow=%v) diverged: %v", slow, err)
		}
	}

	// Reverse operations against the streamed trace: land mid-run, step
	// back across a delta checkpoint boundary, re-seek forward, and
	// reverse-continue to a breakpoint crossing.
	m3, v3 := buildTrapDense(t, false)
	rp := replayerFor(t, data, m3, v3, nil)
	if len(tr.Checkpoints) < 4 {
		t.Fatalf("need ≥4 checkpoints, got %d", len(tr.Checkpoints))
	}
	// Position after a delta checkpoint (index 2 is a delta with
	// KeyframeEvery=3: keyframe 0, deltas 1-2, keyframe 3, ...).
	if !tr.Checkpoints[2].Delta {
		t.Fatalf("checkpoint 2 should be a delta")
	}
	posA := tr.Checkpoints[2].Instr + 40
	if err := rp.SeekInstr(posA); err != nil {
		t.Fatal(err)
	}
	digA := Digest(m3, v3)
	back := posA - tr.Checkpoints[1].Instr - 1
	if err := rp.ReverseStep(back); err != nil {
		t.Fatal(err)
	}
	if got, want := rp.Position(), posA-back; got != want {
		t.Fatalf("reverse-step landed at %d, want %d", got, want)
	}
	if err := rp.SeekInstr(posA); err != nil {
		t.Fatal(err)
	}
	if got := Digest(m3, v3); got != digA {
		t.Fatalf("re-seek digest %#x, want %#x", got, digA)
	}
	// Reverse-continue to the previous execution of the body loop head.
	img, _ := asm.Assemble(trapDenseKernel)
	body := img.Symbols["body"]
	if body == 0 {
		t.Fatal("kernel has no body symbol")
	}
	hit, err := rp.ReverseContinue([]uint32{body}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("reverse-continue found no body crossing before the landing")
	}
	if m3.CPU.PC != body {
		t.Fatalf("reverse-continue landed at pc=%08x, want body=%08x", m3.CPU.PC, body)
	}
	if rp.Err() != nil {
		t.Fatalf("unexpected divergence: %v", rp.Err())
	}
}

// buildEndless boots the trap-dense kernel with its loop bound removed:
// the guest cycles through monitor crossings (and the virtual timer keeps
// firing events) until the run's cycle limit — the long-recording shape
// the bounded-memory property is about.
func buildEndless(t *testing.T) (*machine.Machine, *vmm.VMM) {
	t.Helper()
	src := strings.Replace(trapDenseKernel, "blt  r7, r8, body", "b    body", 1)
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := v.Launch(img.Entry); err != nil {
		t.Fatal(err)
	}
	return m, v
}

// TestStreamBoundedMemory pins the O(segment) property: however long the
// recording runs (≥ 8 snapshot intervals here), the recorder's resident
// trace data stays bounded by one event batch, while the stream itself
// keeps growing — the opposite of the old accumulate-then-write design.
func TestStreamBoundedMemory(t *testing.T) {
	const batch = 128
	run := func(cycles uint64) (StreamStats, int) {
		var sink countWriter
		m, v := buildEndless(t)
		rec, err := NewStreamRecorder(&sink, m, v, nil, TraceMeta{Custom: true},
			Options{SnapshotInterval: 10_000_000, KeyframeEvery: 4, EventBatch: batch, MaxSnapshots: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		rec.Start()
		m.Run(cycles)
		pendAtFinish := rec.PendingEvents()
		stats, err := rec.FinishStream()
		if err != nil {
			t.Fatal(err)
		}
		if rec.PendingEvents() != 0 {
			t.Fatalf("events still pending after FinishStream: %d", rec.PendingEvents())
		}
		return stats, pendAtFinish
	}

	short, _ := run(100_000_000)
	long, _ := run(400_000_000)

	if long.Keyframes+long.Deltas < 9 {
		t.Fatalf("long run took %d+%d snapshots, want ≥ 9 (8 intervals)",
			long.Keyframes, long.Deltas)
	}
	if long.Events <= short.Events || long.Segments <= short.Segments {
		t.Fatalf("long run did not grow the stream: events %d vs %d, segments %d vs %d",
			long.Events, short.Events, long.Segments, short.Segments)
	}
	// The bound itself: resident events never exceed one batch, on either
	// run length — a 4x longer recording holds no more trace data in
	// memory than a short one.
	if short.MaxPendingEvents > batch || long.MaxPendingEvents > batch {
		t.Fatalf("resident event high-water exceeded the batch bound: short %d, long %d, batch %d",
			short.MaxPendingEvents, long.MaxPendingEvents, batch)
	}
}

// countWriter discards while counting (the recording sink for memory
// tests — nothing retained).
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestDeltaRestoreDifferential proves delta checkpoints restore the
// exact state full snapshots do: the same deterministic run recorded
// with KeyframeEvery 1 (all full) and KeyframeEvery 4 (delta chains)
// must land on identical digests at every checkpoint position when
// seeking backwards from the end (forcing checkpoint restores).
func TestDeltaRestoreDifferential(t *testing.T) {
	record := func(keyEvery int) []byte {
		m, v := buildTrapDense(t, false)
		rec := startMem(t, m, v, nil, Options{SnapshotInterval: 15_000_000, KeyframeEvery: keyEvery})
		if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
			t.Fatalf("record: stop %v", reason)
		}
		return rec.finish(t)
	}
	dataFull, dataDelta := record(1), record(4)
	trFull, trDelta := readBack(t, dataFull), readBack(t, dataDelta)

	if len(trFull.Checkpoints) != len(trDelta.Checkpoints) {
		t.Fatalf("checkpoint counts differ: %d vs %d", len(trFull.Checkpoints), len(trDelta.Checkpoints))
	}
	deltas := 0
	for _, cp := range trDelta.Checkpoints {
		if cp.Delta {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatal("KeyframeEvery=4 recording produced no delta checkpoints")
	}
	for _, cp := range trFull.Checkpoints {
		if cp.Delta {
			t.Fatal("KeyframeEvery=1 recording produced a delta checkpoint")
		}
	}

	mF, vF := buildTrapDense(t, false)
	rpF := replayerFor(t, dataFull, mF, vF, nil)
	mD, vD := buildTrapDense(t, false)
	rpD := replayerFor(t, dataDelta, mD, vD, nil)

	// Walk the checkpoints newest-first so every seek is a backwards one:
	// the delta replayer must materialize each chain, not just re-execute.
	for i := len(trDelta.Checkpoints) - 1; i >= 0; i-- {
		pos := trDelta.Checkpoints[i].Instr + 3
		if pos > trDelta.EndInstr {
			pos = trDelta.Checkpoints[i].Instr
		}
		if err := rpF.SeekInstr(pos); err != nil {
			t.Fatalf("full seek %d: %v", pos, err)
		}
		if err := rpD.SeekInstr(pos); err != nil {
			t.Fatalf("delta seek %d: %v", pos, err)
		}
		dF, dD := Digest(mF, vF), Digest(mD, vD)
		if dF != dD {
			t.Fatalf("digest mismatch at instr %d (checkpoint %d): full %#x, delta %#x", pos, i, dF, dD)
		}
		if mF.Clock() != mD.Clock() {
			t.Fatalf("clock mismatch at instr %d: %d vs %d", pos, mF.Clock(), mD.Clock())
		}
	}
}

// TestStreamWriteErrorPropagation makes sure a failing sink cannot yield
// a silently truncated trace: the recorder reports the error at (or
// before) FinishStream, and Trace.Write fails loudly too.
func TestStreamWriteErrorPropagation(t *testing.T) {
	// A trace written through a failing writer: every failure offset
	// must surface an error.
	m, v := buildTrapDense(t, false)
	rec := startMem(t, m, v, nil, Options{SnapshotInterval: 30_000_000})
	if reason := m.Run(200_000_000); reason == machine.StopWedged {
		t.Fatal("guest wedged")
	}
	tr := readBack(t, rec.finish(t))
	full := encode(t, tr)
	for _, limit := range []int64{0, 1, 9, 300, int64(len(full)) - 1} {
		if err := tr.Write(&failWriter{limit: limit}); err == nil {
			t.Fatalf("Write through a sink failing at byte %d reported success", limit)
		}
	}

	// Streaming recorder over a failing sink: the stream seals with an
	// error, never silently — and a broken stream must not start
	// accumulating the rest of the run's events in memory either (the
	// bounded-memory property matters most when the disk just filled up).
	const batch = 16
	m2, v2 := buildEndless(t)
	rec2, err := NewStreamRecorder(&failWriter{limit: 2_000}, m2, v2, nil, TraceMeta{Custom: true},
		Options{SnapshotInterval: 30_000_000, EventBatch: batch})
	if err != nil {
		t.Fatalf("header within the limit yet rejected: %v", err)
	}
	rec2.Start()
	m2.Run(300_000_000)
	if rec2.Err() == nil {
		t.Fatal("sink never failed; raise the run length or lower the limit")
	}
	if got := rec2.PendingEvents(); got > batch {
		t.Fatalf("broken stream accumulated %d resident events (batch %d) — O(run) growth on disk failure", got, batch)
	}
	if _, err := rec2.FinishStream(); err == nil {
		t.Fatal("FinishStream over a failing sink reported success")
	}
}

// failWriter accepts limit bytes, then errors.
type failWriter struct{ limit, n int64 }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n+int64(len(p)) > f.limit {
		ok := f.limit - f.n
		if ok < 0 {
			ok = 0
		}
		f.n = f.limit
		return int(ok), fmt.Errorf("sink full at byte %d", f.limit)
	}
	f.n += int64(len(p))
	return len(p), nil
}

// TestTruncatedStreamRejected cuts a valid v3 stream at several points;
// the reader must reject every prefix instead of returning a partial
// trace as complete.
func TestTruncatedStreamRejected(t *testing.T) {
	var buf bytes.Buffer
	m, v := buildTrapDense(t, false)
	rec, err := NewStreamRecorder(&buf, m, v, nil, TraceMeta{Custom: true},
		Options{SnapshotInterval: 40_000_000, EventBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	m.Run(150_000_000)
	if _, err := rec.FinishStream(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := NewLazyTrace(bytes.NewReader(data), int64(len(data)), 0); err != nil {
		t.Fatalf("complete stream rejected: %v", err)
	}
	for _, cut := range []int{len(data) - 1, len(data) - 8, len(data) / 2, 64, 11} {
		if _, err := NewLazyTrace(bytes.NewReader(data[:cut]), int64(cut), 0); err == nil {
			t.Fatalf("stream truncated to %d of %d bytes accepted as complete", cut, len(data))
		}
	}
}

// TestV2RoundTripThroughCompatLoader decodes the committed v2 golden
// trace with the compatibility loader, round-trips it through the v3
// writer, and checks that the opener's transcode of the file is exactly
// that container and replays.
func TestV2RoundTripThroughCompatLoader(t *testing.T) {
	tr := readGoldenV2(t)
	if tr.Meta.Version != 2 {
		t.Fatalf("compat loader reports version %d, want 2", tr.Meta.Version)
	}
	v3 := encode(t, tr)
	tr3 := readBack(t, v3)
	if tr3.Meta.Version != TraceVersion || tr3.EndDigest != tr.EndDigest ||
		len(tr3.Events) != len(tr.Events) || len(tr3.Checkpoints) != len(tr.Checkpoints) {
		t.Fatal("v2 to v3 round trip lost data")
	}
	data, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	lt := lazyOpen(t, data, 0)
	if got := lt.Reader().Segments(); !reflect.DeepEqual(got, lazyOpen(t, v3, 0).Reader().Segments()) {
		t.Fatal("the opener's v2 transcode is not Trace.Write of the blob")
	}
	m, v, recv := buildGolden(t, tr.Meta)
	rp, err := NewReplayerSource(lt, m, v, recv)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.RunToEnd(); err != nil {
		t.Fatalf("v2 trace replay diverged: %v", err)
	}
}
