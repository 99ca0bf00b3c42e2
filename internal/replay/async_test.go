package replay

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"lvmm/internal/fault"
	"lvmm/internal/machine"
)

// firstDiff returns the first byte offset where a and b differ (the
// shorter length when one is a prefix of the other), or -1 if equal.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// TestAsyncRecordDifferential is the async pipeline's correctness
// anchor: recording the same deterministic run with one, two and four
// encoder workers (GOMAXPROCS 1, 2 and 4) must produce byte-identical
// containers — not just equivalent ones — and all must equal
// Trace.Write of the read-back trace, the sequential reference writer. A streaming run recorded at default options (a frame-producing
// guest, snapshots at the default cadence) must equal its Trace.Write
// too. The recordings use DefaultEventBatch, the batch size Write splits
// events at, so the batch boundaries match. Byte-identity is what makes
// the pipeline invisible: trace files hash the same, diff the same, and
// golden fixtures stay valid whatever the host's core count.
func TestAsyncRecordDifferential(t *testing.T) {
	opts := Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3}
	record := func(procs int) ([]byte, StreamStats) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, v := buildTrapDense(t, false)
		var buf bytes.Buffer
		rec, err := NewStreamRecorder(&buf, m, v, nil, TraceMeta{Custom: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec.Start()
		if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
			t.Fatalf("record (GOMAXPROCS %d): stop %v pc=%08x", procs, reason, m.CPU.PC)
		}
		stats, err := rec.FinishStream()
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), stats
	}

	oneBytes, oneStats := record(1)
	for _, procs := range []int{2, 4} {
		data, stats := record(procs)
		if at := firstDiff(oneBytes, data); at >= 0 {
			t.Fatalf("GOMAXPROCS 1 and %d containers diverge at byte %d (sizes %d vs %d)",
				procs, at, len(oneBytes), len(data))
		}
		if oneStats != stats {
			t.Fatalf("stats diverge:\nGOMAXPROCS 1: %+v\nGOMAXPROCS %d: %+v", oneStats, procs, stats)
		}
	}
	if oneStats.Deltas == 0 || oneStats.Keyframes < 2 {
		t.Fatalf("workload too small to exercise the pipeline: %+v", oneStats)
	}

	m, v, recv := buildStreamLW(t)
	rec := startMem(t, m, v, recv, Options{})
	if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
		t.Fatalf("record stream_lw: stop %v pc=%08x", reason, m.CPU.PC)
	}
	lwStats, err := rec.FinishStream()
	if err != nil {
		t.Fatal(err)
	}
	if lwStats.Keyframes+lwStats.Deltas < 2 || lwStats.Events == 0 {
		t.Fatalf("stream_lw run too small to compare containers: %+v", lwStats)
	}
	lwBytes := rec.buf.Bytes()

	for _, c := range []struct {
		name string
		data []byte
	}{{"trap-dense", oneBytes}, {"stream_lw", lwBytes}} {
		ref := encode(t, readBack(t, c.data))
		if at := firstDiff(c.data, ref); at >= 0 {
			t.Fatalf("%s: pipeline and Trace.Write diverge at byte %d (sizes %d vs %d)",
				c.name, at, len(c.data), len(ref))
		}
	}

	// The shared container replays bit-identically on both engines.
	for _, slow := range []bool{false, true} {
		m2, v2 := buildTrapDense(t, slow)
		if err := replayerFor(t, oneBytes, m2, v2, nil).RunToEnd(); err != nil {
			t.Fatalf("replay (slow=%v) diverged: %v", slow, err)
		}
	}
}

// TestSegEncoderMatchesReference is the differential for the encoder
// workers' kept gob state: every segment a segEncoder writes must equal
// encodeSegment's bytes, the fresh-encoder reference. The sequence has
// every payload type the pipeline encodes (meta with a fault plan, event
// batches holding EvInput data, keyframes, deltas, the end seal): the
// first segment of each type, repeats, and the whole sequence a second
// time through the same state, as the next recording that takes it from
// the pool does.
func TestSegEncoderMatchesReference(t *testing.T) {
	tr := readBack(t, recordStreamLW(t, []uint64{30_000_000, 60_000_000}))
	plan := &fault.Plan{
		Name:   "differential",
		Seed:   7,
		Frames: fault.FrameFaults{Drop: fault.Sched{Ordinals: []uint64{3, 9}}, Corrupt: fault.Sched{Every: 50}},
		IRQ:    fault.IRQFaults{Spurious: []fault.SpuriousIRQ{{At: 1_000_000, Line: 3}}},
	}
	seq := []any{TraceMeta{Version: TraceVersion, Label: "differential", Fault: plan}}
	var keyframes, deltas, inputs int
	for i := range tr.Checkpoints {
		cp := &tr.Checkpoints[i]
		if cp.Delta {
			deltas++
		} else {
			keyframes++
		}
		seq = append(seq, cp)
		lo := cp.EventIndex
		hi := len(tr.Events)
		if i+1 < len(tr.Checkpoints) {
			hi = tr.Checkpoints[i+1].EventIndex
		}
		for ; lo < hi; lo += 512 {
			batch := tr.Events[lo:min(lo+512, hi)]
			for _, ev := range batch {
				if ev.Kind == EvInput {
					inputs++
				}
			}
			seq = append(seq, batch)
		}
	}
	seq = append(seq, traceEnd{EndCycle: tr.EndCycle, EndInstr: tr.EndInstr, EndReason: tr.EndReason, EndDigest: tr.EndDigest})
	if keyframes < 2 || deltas == 0 || inputs == 0 {
		t.Fatalf("recording too small: %d keyframes, %d deltas, %d input events", keyframes, deltas, inputs)
	}

	e := segEncoderPool.New().(*segEncoder)
	for pass := 1; pass <= 2; pass++ {
		for i, p := range seq {
			got, err := e.encode(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := encodeSegment(p)
			if err != nil {
				t.Fatal(err)
			}
			if at := firstDiff(got, want); at >= 0 {
				t.Fatalf("pass %d, segment %d (%T): kept gob state and encodeSegment diverge at byte %d (sizes %d vs %d)",
					pass, i, p, at, len(got), len(want))
			}
		}
	}
	if len(e.gobs) != 4 {
		t.Fatalf("encoder keeps %d gob streams, want one per payload type (4)", len(e.gobs))
	}
}

// TestAsyncWriterRaceHammer drives the async writer's full concurrent
// surface under the race detector: a producer enqueueing segments and
// sealing, encoder/writer goroutines inside the pipeline, error
// injection at varying byte offsets, and a second goroutine polling
// Err the whole time (the documented cross-goroutine read). A tiny
// queue keeps backpressure engaged so the producer actually blocks on
// a full pipeline.
func TestAsyncWriterRaceHammer(t *testing.T) {
	limits := []int64{0, 1, 9, 100, 1_000, 5_000, 1 << 30}
	for iter := 0; iter < 4; iter++ {
		for _, limit := range limits {
			sw, err := newSegWriter(&failWriter{limit: limit})
			if err != nil {
				if limit >= 16 {
					t.Fatalf("limit %d: header rejected: %v", limit, err)
				}
				continue
			}
			aw := newAsyncSegWriter(sw, 2)

			stop := make(chan struct{})
			var poll sync.WaitGroup
			poll.Add(1)
			go func() {
				defer poll.Done()
				for {
					select {
					case <-stop:
						return
					default:
						aw.Err()
					}
				}
			}()

			aw.enqueue(segMeta, TraceMeta{Version: TraceVersion, Label: "hammer"}, decoNone())
			for i := 0; i < 40; i++ {
				batch := make([]Event, 8)
				for j := range batch {
					batch[j] = Event{
						Kind:  EvIRQ,
						Cycle: uint64(iter<<20 | i<<8 | j),
						Instr: uint64(i*8 + j),
						Line:  uint8(j),
					}
				}
				if err := aw.enqueue(segEvents, batch, decoEvents(batch)); err != nil {
					break
				}
			}
			sealErr := aw.seal()
			close(stop)
			poll.Wait()

			if limit < 5_000 && sealErr == nil {
				t.Fatalf("limit %d: pipeline over a failing sink sealed cleanly", limit)
			}
			if limit == 1<<30 && sealErr != nil {
				t.Fatalf("healthy sink: seal failed: %v", sealErr)
			}
			if sealErr != nil && aw.Err() == nil {
				t.Fatalf("limit %d: seal returned %v but Err() is nil", limit, sealErr)
			}
			// seal is idempotent: a second call reports the same outcome
			// without deadlocking on the already-drained pipeline.
			if again := aw.seal(); (again == nil) != (sealErr == nil) {
				t.Fatalf("limit %d: second seal %v, first %v", limit, again, sealErr)
			}
		}
	}
}

// TestAsyncBackpressureBounded pins the pipeline's memory bound: a
// stalled-then-failing sink must not let enqueue buffer unboundedly —
// the queue fills, the producer blocks until the writer drains or
// latches the error, and after the error every later enqueue drops its
// payload immediately.
func TestAsyncBackpressureBounded(t *testing.T) {
	sw, err := newSegWriter(&failWriter{limit: 200})
	if err != nil {
		t.Fatal(err)
	}
	aw := newAsyncSegWriter(sw, 1)
	// Far more segments than the queue holds: if enqueue did not block
	// and drop on error, the pipeline would retain them all.
	for i := 0; i < 1000; i++ {
		batch := []Event{{Kind: EvTimer, Cycle: uint64(i)}}
		if aw.enqueue(segEvents, batch, decoEvents(batch)) != nil {
			break
		}
	}
	if err := aw.seal(); err == nil {
		t.Fatal("failing sink sealed cleanly")
	}
}
