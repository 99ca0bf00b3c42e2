package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds builds the shared seed corpus for the trace-reader fuzzers:
// a real streamed v3 container (with deltas), the v2 golden fixture,
// header-only stubs, and truncated/corrupted variants of the valid
// container (one with only a keyframe's gzip CRC damaged, one whose
// first keyframe holds a chunk outside RAM). The fuzzer mutates from
// these, so every structural layer — magic, trailer, seek index, segment
// framing, gzip, gob — starts from an input that actually parses.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	v3 := streamTrapDense(f, Options{SnapshotInterval: 50_000_000, KeyframeEvery: 2, EventBatch: 32})
	v2, err := os.ReadFile(filepath.Join("..", "..", "testdata", "v2-golden.trc"))
	if err != nil {
		f.Fatalf("v2 golden fixture: %v", err)
	}
	corrupt := append([]byte(nil), v3...)
	corrupt[len(corrupt)/2] ^= 0xFF

	badCRC, _ := corruptKeyframeCRC(f, v3)
	badChunk := editCheckpoint(f, v3, 0, outOfRAM)

	noTrailer := append([]byte(nil), v3...)
	copy(noTrailer[len(noTrailer)-16:], make([]byte, 16))

	return [][]byte{
		v3,
		v2,
		corrupt,
		badCRC,
		badChunk,
		noTrailer,
		v3[:len(v3)/2],
		v3[:24],
		v2[:64],
		[]byte(traceMagic),
		append([]byte(traceMagic), TraceVersion, 0),
		append([]byte(traceMagic), traceVersionV2, 0),
		{},
	}
}

// fuzzEventCap bounds how many events/checkpoints a fuzz iteration
// walks: a crafted index can claim huge counts, and the property under
// test is "no panic, clean errors", not exhaustive decoding.
const fuzzEventCap = 4096

// FuzzSegmentReader throws arbitrary bytes at the v3 seek-index reader:
// opening must either fail with an error or yield a reader whose every
// segment decode returns data or an error — never a panic, and never an
// allocation beyond the decoded-segment bomb caps, whatever the index
// or the segment framing claims.
func FuzzSegmentReader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewSegmentReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		_ = sr.Meta()
		_, _, _, _ = sr.End()
		for i, si := range sr.Segments() {
			switch {
			case si.IsEvents():
				_, _ = sr.DecodeEvents(i)
			case si.IsSnapshot():
				_, _ = sr.DecodeCheckpoint(i)
			}
			_ = si.KindName()
		}
	})
}

// FuzzOpenSourceFile throws arbitrary bytes at the whole trace-opening
// surface — format sniffing, the lazy v3 path, and the monolithic v2
// loader — then drives the returned Source the way a replay session
// would, restores included: a replayer attached to one trap-dense
// machine, reused across iterations, restores every checkpoint it can.
// Every call must return data or an error; panics and unbounded
// allocations are the bugs this fuzzer exists to find.
func FuzzOpenSourceFile(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	m, v := buildTrapDense(f, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenSourceFile(path, 1<<20)
		if err != nil {
			return
		}
		defer src.Close()

		_ = src.Meta()
		_, _, _, _ = src.End()
		_ = src.StartInstr()

		n := src.NumEvents()
		if n > fuzzEventCap {
			n = fuzzEventCap
		}
		for i := 0; i < n; i++ {
			if _, err := src.Event(i); err != nil {
				break
			}
		}
		if idx, err := src.NextInput(0); err == nil && idx >= 0 {
			_, _ = src.Event(idx)
		}

		cps := src.NumCheckpoints()
		if cps > 64 {
			cps = 64
		}
		decodable := 0
		for i := 0; i < cps; i++ {
			cm := src.CheckpointMeta(i)
			_ = src.ByIndex(cm.Index)
			if _, err := src.Checkpoint(i); err != nil {
				break
			}
			decodable++
		}
		_ = src.FreshIndex()

		r := &Replayer{src: src, m: m, v: v, liveBase: -1}
		for i := 0; i < decodable; i++ {
			_ = r.restoreCheckpoint(i)
		}
	})
}
