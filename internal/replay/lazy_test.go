package replay

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/guest"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/vmm"
)

// streamTrapDense records the trap-dense kernel to a v3 stream and
// returns the raw container bytes. testing.TB so fuzz targets can build
// seed traces from their *testing.F.
func streamTrapDense(t testing.TB, opts Options) []byte {
	t.Helper()
	m, v := buildTrapDense(t, false)
	rec := startMem(t, m, v, nil, opts)
	if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
		t.Fatalf("record: stop %v pc=%08x", reason, m.CPU.PC)
	}
	return rec.finish(t)
}

// lazyOpen opens raw trace bytes as a LazyTrace with the given budget.
func lazyOpen(t testing.TB, data []byte, budget int64) *LazyTrace {
	t.Helper()
	lt, err := NewLazyTrace(bytes.NewReader(data), int64(len(data)), budget)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

// memRecorder is a Recorder streaming into memory, the tests' stand-in
// for a trace file.
type memRecorder struct {
	*Recorder
	buf bytes.Buffer
}

// startMem starts recording a custom machine into memory.
func startMem(t testing.TB, m *machine.Machine, v *vmm.VMM, recv *netsim.Receiver, opts Options) *memRecorder {
	t.Helper()
	r := &memRecorder{}
	rec, err := NewStreamRecorder(&r.buf, m, v, recv, TraceMeta{Custom: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Recorder = rec
	rec.Start()
	return r
}

// finish seals the recording and returns the container bytes.
func (r *memRecorder) finish(t testing.TB) []byte {
	t.Helper()
	if _, err := r.FinishStream(); err != nil {
		t.Fatal(err)
	}
	return r.buf.Bytes()
}

// replayerFor attaches a replayer to a machine, on a source of its own
// opened from data with an unbounded cache: live checkpoints a session
// inserts stay in its source.
func replayerFor(t testing.TB, data []byte, m *machine.Machine, v *vmm.VMM, recv *netsim.Receiver) *Replayer {
	t.Helper()
	rp, err := NewReplayerSource(lazyOpen(t, data, math.MaxInt64), m, v, recv)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// readBack decodes every segment of a v3 container in file order into a
// Trace: the sequential reference reader, independent of LazyTrace's
// index geometry, for tests that inspect or rewrite a recorded timeline.
func readBack(t testing.TB, data []byte) *Trace {
	t.Helper()
	sr, err := NewSegmentReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("reading back the container: %v", err)
	}
	tr := &Trace{Meta: sr.Meta()}
	tr.EndCycle, tr.EndInstr, tr.EndReason, tr.EndDigest = sr.End()
	for i, si := range sr.Segments() {
		switch {
		case si.IsEvents():
			batch, err := sr.DecodeEvents(i)
			if err != nil {
				t.Fatalf("reading back the container: %v", err)
			}
			tr.Events = append(tr.Events, batch...)
		case si.IsSnapshot():
			cp, err := sr.DecodeCheckpoint(i)
			if err != nil {
				t.Fatalf("reading back the container: %v", err)
			}
			tr.Checkpoints = append(tr.Checkpoints, *cp)
		}
	}
	return tr
}

// encode writes a trace with Trace.Write and returns the container.
func encode(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLazyReplayDifferential proves the lazy reader reads what the
// container holds: its resident metadata and every event it decodes on
// demand must match a sequential decode of every segment (readBack),
// and the streamed trace must verify end to end on both execution
// engines.
func TestLazyReplayDifferential(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3, EventBatch: 64})

	tr := readBack(t, data)
	lt := lazyOpen(t, data, 0)
	defer lt.Close()

	if got, want := lt.NumEvents(), len(tr.Events); got != want {
		t.Fatalf("lazy event count %d, full loader has %d", got, want)
	}
	if got, want := lt.NumCheckpoints(), len(tr.Checkpoints); got != want {
		t.Fatalf("lazy checkpoint count %d, full loader has %d", got, want)
	}
	for i := range tr.Checkpoints {
		cp := &tr.Checkpoints[i]
		cm := lt.CheckpointMeta(i)
		if cm.Index != cp.Index || cm.Instr != cp.Instr || cm.Cycle != cp.Cycle ||
			cm.EventIndex != cp.EventIndex || cm.Delta != cp.Delta {
			t.Fatalf("checkpoint %d stub %+v does not match full loader's %d/%d/%d/%d/%v",
				i, cm, cp.Index, cp.Instr, cp.Cycle, cp.EventIndex, cp.Delta)
		}
	}
	ec, ei, er, ed := lt.End()
	if ec != tr.EndCycle || ei != tr.EndInstr || er != tr.EndReason || ed != tr.EndDigest {
		t.Fatal("lazy end seal does not match the full loader's")
	}
	for i := range tr.Events {
		ev, err := lt.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != tr.Events[i].Kind || ev.Cycle != tr.Events[i].Cycle ||
			ev.Instr != tr.Events[i].Instr || ev.Digest != tr.Events[i].Digest {
			t.Fatalf("event %d differs between lazy and full loads", i)
		}
	}

	for _, slow := range []bool{false, true} {
		lt2 := lazyOpen(t, data, 0)
		m, v := buildTrapDense(t, slow)
		rp, err := NewReplayerSource(lt2, m, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.RunToEnd(); err != nil {
			t.Fatalf("lazy replay (slow=%v) diverged: %v", slow, err)
		}
		lt2.Close()
	}
}

// TestLazyReplayBoundedMemory pins the replay-side O(segment) property,
// mirroring TestStreamBoundedMemory on the read path: a 4x longer
// recording replayed through the LRU-backed engine holds no more
// resident segment bytes than the configured budget — the high-water
// mark does not grow with trace length.
func TestLazyReplayBoundedMemory(t *testing.T) {
	record := func(cycles uint64) []byte {
		var buf bytes.Buffer
		m, v := buildEndless(t)
		rec, err := NewStreamRecorder(&buf, m, v, nil, TraceMeta{Custom: true},
			Options{SnapshotInterval: 10_000_000, KeyframeEvery: 4, EventBatch: 128, MaxSnapshots: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		rec.Start()
		m.Run(cycles)
		if _, err := rec.FinishStream(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	shortData := record(100_000_000)
	longData := record(400_000_000)
	if len(longData) <= 2*len(shortData) {
		t.Fatalf("long recording is not meaningfully longer: %d vs %d bytes", len(longData), len(shortData))
	}

	const budget = 1 << 20
	replay := func(data []byte) *LazyTrace {
		lt := lazyOpen(t, data, budget)
		m, v := buildEndless(t)
		rp, err := NewReplayerSource(lt, m, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.RunToEnd(); err != nil {
			t.Fatalf("lazy replay diverged: %v", err)
		}
		return lt
	}
	shortLT := replay(shortData)
	defer shortLT.Close()
	longLT := replay(longData)
	defer longLT.Close()

	if shortLT.MaxResidentBytes() > budget || longLT.MaxResidentBytes() > budget {
		t.Fatalf("resident high-water exceeded the budget: short %d, long %d, budget %d",
			shortLT.MaxResidentBytes(), longLT.MaxResidentBytes(), budget)
	}
	// The long replay must actually have cycled segments through the
	// budget: more faults than a trace that fits resident would take.
	if longLT.Faults() <= shortLT.Faults() {
		t.Fatalf("long replay faulted %d segments, short %d — cache never cycled",
			longLT.Faults(), shortLT.Faults())
	}
	// And the bound is about the budget, not the trace: the 4x trace's
	// high-water is no higher than the short one's budget ceiling.
	if longLT.MaxResidentBytes() > budget {
		t.Fatalf("4x trace high-water %d exceeds budget %d", longLT.MaxResidentBytes(), budget)
	}
}

// TestLazyEvictionReFaultDifferential is the LRU correctness property:
// drive reverse operations through a cache so small that checkpoint and
// event segments are evicted and re-faulted mid-session, and require
// every landing to be bit-identical to the same operations on a replay
// whose unbounded cache never evicts — on both execution engines.
func TestLazyEvictionReFaultDifferential(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 15_000_000, KeyframeEvery: 4, EventBatch: 32})
	tr := readBack(t, data)
	img, err := asm.Assemble(trapDenseKernel)
	if err != nil {
		t.Fatal(err)
	}
	body := img.Symbols["body"]
	if body == 0 {
		t.Fatal("kernel has no body symbol")
	}

	for _, slow := range []bool{false, true} {
		// Reference: a replay whose cache never evicts.
		mF, vF := buildTrapDense(t, slow)
		rpF := replayerFor(t, data, mF, vF, nil)
		// Subject: lazy replay with a budget far below the decoded trace
		// (about one delta snapshot; a keyframe is held alone), forcing
		// eviction traffic. A restore walk decodes each chain member
		// once, so at 96 KB this session re-faults nothing.
		lt := lazyOpen(t, data, 32<<10)
		mL, vL := buildTrapDense(t, slow)
		rpL, err := NewReplayerSource(lt, mL, vL, nil)
		if err != nil {
			t.Fatal(err)
		}

		check := func(stage string) {
			t.Helper()
			if rpF.Position() != rpL.Position() {
				t.Fatalf("%s (slow=%v): positions diverge, full %d lazy %d", stage, slow, rpF.Position(), rpL.Position())
			}
			if dF, dL := Digest(mF, vF), Digest(mL, vL); dF != dL {
				t.Fatalf("%s (slow=%v): digest full %#x, lazy %#x", stage, slow, dF, dL)
			}
			if mF.Clock() != mL.Clock() {
				t.Fatalf("%s (slow=%v): clock full %d, lazy %d", stage, slow, mF.Clock(), mL.Clock())
			}
		}

		// Seek deep, then walk checkpoint positions newest-first: every
		// backwards seek restores a chain whose members were long evicted.
		for i := len(tr.Checkpoints) - 1; i >= 0; i-- {
			pos := tr.Checkpoints[i].Instr + 3
			if pos > tr.EndInstr {
				pos = tr.Checkpoints[i].Instr
			}
			if err := rpF.SeekInstr(pos); err != nil {
				t.Fatalf("full seek %d: %v", pos, err)
			}
			if err := rpL.SeekInstr(pos); err != nil {
				t.Fatalf("lazy seek %d: %v", pos, err)
			}
			check("checkpoint walk")
		}

		// Reverse operations from a mid-run landing.
		mid := tr.Checkpoints[len(tr.Checkpoints)/2].Instr + 40
		for _, rp := range []*Replayer{rpF, rpL} {
			if err := rp.SeekInstr(mid); err != nil {
				t.Fatal(err)
			}
		}
		check("mid-run landing")
		for _, rp := range []*Replayer{rpF, rpL} {
			if err := rp.ReverseStep(5_000); err != nil {
				t.Fatal(err)
			}
		}
		check("reverse-step")
		hitF, err := rpF.ReverseContinue([]uint32{body}, nil)
		if err != nil {
			t.Fatal(err)
		}
		hitL, err := rpL.ReverseContinue([]uint32{body}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hitF != hitL {
			t.Fatalf("reverse-continue hit full=%v lazy=%v", hitF, hitL)
		}
		check("reverse-continue")
		if mL.CPU.PC != mF.CPU.PC {
			t.Fatalf("landing pc full=%08x lazy=%08x", mF.CPU.PC, mL.CPU.PC)
		}

		// The point of the test: the lazy session must actually have
		// re-faulted — more decodes than the trace has segments.
		if lt.Faults() <= int64(len(lt.Reader().Segments())) {
			t.Fatalf("only %d faults over %d segments — the cache never evicted, shrink the budget",
				lt.Faults(), len(lt.Reader().Segments()))
		}
		lt.Close()
	}
}

// TestLazyLiveCheckpoint proves session-created checkpoints work on a
// lazy source: a live snapshot inserted mid-timeline is used by a later
// reverse seek and survives cache eviction (it has no segment to
// re-fault from).
func TestLazyLiveCheckpoint(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3, EventBatch: 64})
	lt := lazyOpen(t, data, 96<<10)
	defer lt.Close()
	m, v := buildTrapDense(t, false)
	rp, err := NewReplayerSource(lt, m, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, endInstr, _, _ := lt.End()
	pos := endInstr / 2
	if err := rp.SeekInstr(pos); err != nil {
		t.Fatal(err)
	}
	dig := Digest(m, v)
	before := lt.NumCheckpoints()
	if _, err := rp.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if lt.NumCheckpoints() != before+1 {
		t.Fatalf("live checkpoint not inserted: %d checkpoints, had %d", lt.NumCheckpoints(), before)
	}
	// Run away, thrash the cache, then come back: the landing must
	// restore from the live snapshot (nearest checkpoint at pos) and
	// reproduce the digest exactly.
	if err := rp.SeekInstr(endInstr); err != nil {
		t.Fatal(err)
	}
	if err := rp.SeekInstr(pos); err != nil {
		t.Fatal(err)
	}
	if got := Digest(m, v); got != dig {
		t.Fatalf("post-checkpoint re-seek digest %#x, want %#x", got, dig)
	}
	if got := nearestCheckpointIdx(lt, pos); lt.CheckpointMeta(got).Instr != pos {
		t.Fatalf("nearest checkpoint to %d is at %d — live snapshot not found by the seek planner",
			pos, lt.CheckpointMeta(got).Instr)
	}
}

// goldenV2Path is the committed legacy v2 trace: a short lightweight
// streaming run recorded before v2 writing was retired. It never
// changes; every v2 test reads it.
var goldenV2Path = filepath.Join("..", "..", "testdata", "v2-golden.trc")

// readGoldenV2 decodes the v2 golden file's blob with the compatibility
// loader, the reference its transcode to v3 is checked against.
func readGoldenV2(t *testing.T) *Trace {
	t.Helper()
	data, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	if ver, err := parseHeader(data); err != nil || ver != traceVersionV2 {
		t.Fatalf("golden header: version %d, %v", ver, err)
	}
	var tr Trace
	if err := readTraceV2(bytes.NewReader(data[headerLen:]), &tr); err != nil {
		t.Fatal(err)
	}
	return &tr
}

// buildGolden rebuilds the machine a streaming-target trace was recorded
// on, from its metadata: the streaming guest under the lightweight
// monitor with its debug stub, wired as the public target constructor
// wires it.
func buildGolden(t *testing.T, meta TraceMeta) (*machine.Machine, *vmm.VMM, *netsim.Receiver) {
	t.Helper()
	recv := netsim.NewReceiver()
	m := machine.NewStreamingSeeded(meta.Params.BlockBytes, recv, guest.KernelBase, meta.Seed)
	entry, err := guest.Prepare(m, meta.Params)
	if err != nil {
		t.Fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	v.EnableDebugStub()
	if err := v.Launch(entry); err != nil {
		t.Fatal(err)
	}
	return m, v, recv
}

// TestOpenSourceFile proves the format sniffing: a v3 file opens lazily
// from disk, the legacy v2 golden file is transcoded to v3 in memory
// without losing an event or checkpoint, and both replay.
func TestOpenSourceFile(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, EventBatch: 64})
	v3path := filepath.Join(t.TempDir(), "v3.trc")
	if err := os.WriteFile(v3path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src3, err := OpenSourceFile(v3path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src3.Close()
	m, v := buildTrapDense(t, false)
	rp, err := NewReplayerSource(src3, m, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.RunToEnd(); err != nil {
		t.Fatalf("v3 replay diverged: %v", err)
	}

	src2, err := OpenSourceFile(goldenV2Path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	tr2 := readGoldenV2(t)
	if src2.NumEvents() != len(tr2.Events) || src2.NumCheckpoints() != len(tr2.Checkpoints) {
		t.Fatalf("v2 transcode holds %d events / %d checkpoints, the file %d / %d",
			src2.NumEvents(), src2.NumCheckpoints(), len(tr2.Events), len(tr2.Checkpoints))
	}
	if ec, ei, _, ed := src2.End(); ec != tr2.EndCycle || ei != tr2.EndInstr || ed != tr2.EndDigest {
		t.Fatal("v2 transcode's end seal does not match the file's")
	}
	m2, v2, recv2 := buildGolden(t, src2.Meta())
	rp2, err := NewReplayerSource(src2, m2, v2, recv2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp2.RunToEnd(); err != nil {
		t.Fatalf("v2 replay diverged: %v", err)
	}
}
