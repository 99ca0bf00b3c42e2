package fleet

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"lvmm/internal/replay"
)

// TestCancelMidRecordSealsAndSalvages cancels a recording scenario
// mid-run and pins the whole crash-tolerance chain: the async trace
// writer seals a loadable file, no recorder goroutine outlives the run,
// and a subsequent torn copy of that file still salvages to a
// replayable prefix. Run under -race this also proves the cancel path
// (RequestStop from the watcher goroutine) is data-race-free against
// the pipelined segment writer.
func TestCancelMidRecordSealsAndSalvages(t *testing.T) {
	before := runtime.NumGoroutine()

	dir := t.TempDir()
	sc := Scenario{
		Platform:      Lightweight,
		RateMbps:      300,
		DurationTicks: 100_000, // far beyond the cancellation horizon
		Record:        dir + "/cut.trc",
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	res := RunOne(ctx, sc)
	if res.Err != "" {
		t.Fatalf("cancelled recording run failed: %s", res.Err)
	}
	if res.StopReason != "stop requested" {
		t.Fatalf("stop reason %q, want \"stop requested\"", res.StopReason)
	}
	if res.TracePath == "" || res.TraceBytes == 0 {
		t.Fatal("cancelled run left no sealed trace")
	}

	// The async writer must have sealed a complete, loadable container:
	// every segment decodes (gzip CRCs checked) and every delta chain
	// resolves.
	src, err := replay.OpenSourceFile(res.TracePath, 0)
	if err != nil {
		t.Fatalf("sealed trace unreadable: %v", err)
	}
	events, cps := decodeWhole(t, src)
	if events != src.NumEvents() || cps != src.NumCheckpoints() || cps == 0 {
		t.Fatalf("sealed trace decodes %d events and %d checkpoints, its index lists %d and %d",
			events, cps, src.NumEvents(), src.NumCheckpoints())
	}
	src.Close()

	// No goroutine may outlive the run: the recorder's writer, the
	// cancellation watcher, and the canceller above must all be gone.
	// Poll briefly — goroutine teardown is asynchronous.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Tear the sealed file and salvage: the recovered prefix must load,
	// decode whole and keep its checkpoint chains intact.
	whole, err := os.ReadFile(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear a few bytes into the third segment body (meta, then the
	// initial keyframe, stay intact — salvage needs both).
	cut := segmentStart(t, whole, 2) + 5
	torn := whole[:cut]
	var recovered bytes.Buffer
	stats, err := replay.SalvageTrace(bytes.NewReader(torn), &recovered)
	if err != nil {
		t.Fatalf("salvaging torn copy (%d of %d bytes): %v", len(torn), len(whole), err)
	}
	if stats.Sealed {
		t.Fatal("torn copy reported sealed")
	}
	sal, err := replay.NewLazyTrace(bytes.NewReader(recovered.Bytes()), int64(recovered.Len()), 0)
	if err != nil {
		t.Fatalf("salvaged trace unreadable: %v", err)
	}
	if !sal.Meta().Salvaged {
		t.Error("salvaged trace not marked Salvaged")
	}
	events, cps = decodeWhole(t, sal)
	if events != stats.Events || cps != stats.Checkpoints || cps == 0 {
		t.Fatalf("salvaged trace decodes %d events and %d checkpoints, salvage kept %d and %d",
			events, cps, stats.Events, stats.Checkpoints)
	}
}

// decodeWhole decodes every event and snapshot segment of lt, so each
// gzip body is drained and its CRC checked, and walks every delta
// checkpoint's base chain back to a keyframe, each base strictly
// earlier on the timeline. It returns the decoded event and checkpoint
// counts.
func decodeWhole(t *testing.T, lt *replay.LazyTrace) (events, cps int) {
	t.Helper()
	sr := lt.Reader()
	byID := map[int]*replay.Checkpoint{}
	for i, sg := range sr.Segments() {
		switch {
		case sg.IsEvents():
			batch, err := sr.DecodeEvents(i)
			if err != nil {
				t.Fatalf("event segment %d: %v", i, err)
			}
			events += len(batch)
		case sg.IsSnapshot():
			cp, err := sr.DecodeCheckpoint(i)
			if err != nil {
				t.Fatalf("snapshot segment %d: %v", i, err)
			}
			byID[cp.Index] = cp
			cps++
		}
	}
	for id, cur := range byID {
		for steps := 0; cur.Delta; steps++ {
			base, ok := byID[cur.Base]
			if !ok || steps > len(byID) {
				t.Fatalf("checkpoint %d's delta chain does not reach a keyframe", id)
			}
			if base.Instr > cur.Instr || base.Index == cur.Index {
				t.Fatalf("checkpoint %d's base %d is not earlier on the timeline", cur.Index, cur.Base)
			}
			cur = base
		}
	}
	return events, cps
}

// segmentStart walks the v3 container's segment headers (kind:u8 +
// payloadLen:u64 LE after the 10-byte magic/version preamble) and
// returns the byte offset where segment n begins.
func segmentStart(t *testing.T, blob []byte, n int) int {
	t.Helper()
	off := 10
	for i := 0; i < n; i++ {
		if off+9 > len(blob) {
			t.Fatalf("trace has fewer than %d segments", n)
		}
		plen := int64(0)
		for b := 8; b >= 1; b-- {
			plen = plen<<8 | int64(blob[off+b])
		}
		off += 9 + int(plen)
	}
	return off
}
