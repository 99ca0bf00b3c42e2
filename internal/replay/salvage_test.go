package replay

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// segmentBoundaries walks a v3 container's framing and returns the file
// offset of every segment header (plus the final end-of-file offset),
// independent of the seek index — the ground truth truncation points.
func segmentBoundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	r := bytes.NewReader(data)
	if _, err := r.Seek(int64(len(traceMagic)+2), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(len(traceMagic) + 2)
	var hdr [9]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatalf("walking segments at offset %d: %v", off, err)
		}
		offs = append(offs, off)
		n := int64(binary.LittleEndian.Uint64(hdr[1:]))
		if _, err := r.Seek(n, io.SeekCurrent); err != nil {
			t.Fatal(err)
		}
		off += 9 + n
		if hdr[0] == segIndex {
			return append(offs, off+16)
		}
	}
}

// salvageBytes salvages raw container bytes in memory.
func salvageBytes(t *testing.T, data []byte) (SalvageStats, []byte, error) {
	t.Helper()
	var out bytes.Buffer
	stats, err := SalvageTrace(bytes.NewReader(data), &out)
	return stats, out.Bytes(), err
}

// replaySalvaged replays a salvaged container end to end on a fresh
// machine and returns the machine digest and position at the end.
func replaySalvaged(t *testing.T, data []byte, slow bool) (uint64, uint64) {
	t.Helper()
	m, v := buildTrapDense(t, slow)
	rp := replayerFor(t, data, m, v, nil)
	if err := rp.RunToEnd(); err != nil {
		t.Fatalf("salvaged replay diverged: %v", err)
	}
	return Digest(m, v), rp.Position()
}

// TestSalvageCompleteFileIsFaithful: salvaging an undamaged container
// reproduces it byte for byte — segment bodies are carried raw and the
// re-encoded meta, seal, and index are pure functions of their content.
func TestSalvageCompleteFileIsFaithful(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, KeyframeEvery: 2, EventBatch: 64})
	stats, out, err := salvageBytes(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Sealed || stats.Damage != "" {
		t.Fatalf("complete file reported damaged: %+v", stats)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("faithful rewrite differs from the input (%d vs %d bytes)", len(out), len(data))
	}
}

// TestSalvageEveryBoundary is the truncation round trip: a valid trace
// cut at every segment boundary (and just inside each segment) must
// either salvage into a container that loads and replays cleanly, or
// fail with a clean error — never panic, never yield a bad trace.
func TestSalvageEveryBoundary(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, KeyframeEvery: 2, EventBatch: 64})
	bounds := segmentBoundaries(t, data)
	if len(bounds) < 5 {
		t.Fatalf("trace has only %d segments; the sweep needs more structure", len(bounds))
	}

	salvageable := 0
	for _, cut := range bounds {
		for _, off := range []int64{cut, cut + 5} {
			if off > int64(len(data)) {
				continue
			}
			stats, out, err := salvageBytes(t, data[:off])
			if err != nil {
				// Unsalvageable prefixes must fail before writing output.
				if len(out) != 0 && stats.Checkpoints > 0 {
					t.Fatalf("cut at %d: salvage failed (%v) after writing %d bytes", off, err, len(out))
				}
				continue
			}
			salvageable++
			digest, pos := replaySalvaged(t, out, false)

			// The salvaged replay must land on the same machine state the
			// clean recording passed through at that position.
			m, v := buildTrapDense(t, false)
			rp := replayerFor(t, data, m, v, nil)
			if err := rp.SeekInstr(pos); err != nil {
				t.Fatalf("cut at %d: seeking clean trace to instr %d: %v", off, pos, err)
			}
			if want := Digest(m, v); digest != want {
				t.Fatalf("cut at %d: salvaged replay digest %#x at instr %d, clean prefix has %#x",
					off, digest, pos, want)
			}
		}
	}
	if salvageable == 0 {
		t.Fatal("no truncation point salvaged; the sweep proved nothing")
	}
}

// TestSalvagedReplayBothEngines: a salvaged prefix replays identically
// on the fused and per-instruction engines.
func TestSalvagedReplayBothEngines(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, KeyframeEvery: 2, EventBatch: 64})
	bounds := segmentBoundaries(t, data)
	// Walk back from the end to the latest boundary whose prefix lost
	// the end seal but still salvages — the longest genuinely truncated
	// recovery.
	var out []byte
	found := false
	for i := len(bounds) - 1; i >= 0 && !found; i-- {
		stats, o, err := salvageBytes(t, data[:bounds[i]])
		if err == nil && !stats.Sealed {
			out, found = o, true
		}
	}
	if !found {
		t.Fatal("no boundary yields an unsealed salvage")
	}
	dFused, pFused := replaySalvaged(t, out, false)
	dSlow, pSlow := replaySalvaged(t, out, true)
	if dFused != dSlow || pFused != pSlow {
		t.Fatalf("engines disagree on the salvaged prefix: fused %#x@%d, slow %#x@%d",
			dFused, pFused, dSlow, pSlow)
	}
}

// TestSalvageRejectsHopelessPrefixes: damage before the first keyframe
// leaves nothing to restore from; salvage must say so.
func TestSalvageRejectsHopelessPrefixes(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000})
	bounds := segmentBoundaries(t, data)
	// bounds[0] is the meta segment header; cutting there leaves magic only.
	for _, off := range []int64{int64(len(traceMagic) + 2), bounds[0] + 3} {
		if _, _, err := salvageBytes(t, data[:off]); err == nil {
			t.Errorf("cut at %d salvaged despite having no meta", off)
		}
	}
	if _, err := SalvageTrace(bytes.NewReader([]byte("not a trace")), io.Discard); err == nil {
		t.Error("non-trace input salvaged")
	}
}

// TestSalvageFileAndMetaMarker: the file front end writes atomically and
// the salvaged output carries the Salvaged marker that relaxes replay's
// end checks and drives the farm's partial flag.
func TestSalvageFileAndMetaMarker(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, KeyframeEvery: 2})
	bounds := segmentBoundaries(t, data)
	dir := t.TempDir()
	src := filepath.Join(dir, "torn.trc")
	dst := filepath.Join(dir, "recovered.trc")
	if err := os.WriteFile(src, data[:bounds[len(bounds)-3]], 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := SalvageTraceFile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sealed {
		t.Fatal("truncated input reported sealed")
	}
	meta, err := ReadTraceMetaFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Salvaged {
		t.Fatal("salvaged output not marked Salvaged")
	}
	// The probe agrees the source is damaged and salvageable.
	p, err := ProbeTraceFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Complete || !p.Salvageable() || p.Damage == "" {
		t.Fatalf("probe misread the torn file: %+v", p)
	}
	// And calls the recovered output complete.
	p2, err := ProbeTraceFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Complete {
		t.Fatalf("probe calls the salvaged output damaged: %+v", p2)
	}

	// A hopeless source must not leave a destination file behind.
	hopeless := filepath.Join(dir, "hopeless.trc")
	if err := os.WriteFile(hopeless, data[:len(traceMagic)+2], 0o644); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(dir, "nope.trc")
	if _, err := SalvageTraceFile(hopeless, out2); err == nil {
		t.Fatal("hopeless salvage succeeded")
	}
	if _, err := os.Stat(out2); !os.IsNotExist(err) {
		t.Fatalf("failed salvage left %s behind (stat err %v)", out2, err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".salvage-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestSalvageRefusesItsInputAsOutput: an output path that names the
// damaged input under another spelling or through a hard link is
// refused before anything is written — the atomic rename would replace
// the input with its salvaged prefix — and leaves the input's bytes and
// no temp file behind.
func TestSalvageRefusesItsInputAsOutput(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000, KeyframeEvery: 2})
	torn := data[:segmentBoundaries(t, data)[3]]
	dir := t.TempDir()
	src := filepath.Join(dir, "torn.trc")
	if err := os.WriteFile(src, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link.trc")
	if err := os.Link(src, link); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{src, dir + "/./torn.trc", link} {
		if _, err := SalvageTraceFile(src, dst); err == nil {
			t.Errorf("salvage into %s, the input itself, succeeded", dst)
		}
		if got, err := os.ReadFile(src); err != nil || !bytes.Equal(got, torn) {
			t.Fatalf("salvage into %s changed the input (%v)", dst, err)
		}
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".salvage-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
	// A different existing file is still a valid output.
	other := filepath.Join(dir, "other.trc")
	if err := os.WriteFile(other, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SalvageTraceFile(src, other); err != nil {
		t.Fatalf("salvage over an unrelated file: %v", err)
	}
}

// FuzzSalvage throws arbitrary truncations and corruptions of a valid
// v3 container (and arbitrary bytes) at the salvage engine: it must
// never panic, and when it claims success the output must be a loadable
// container that itself salvages to identical bytes (a fixed point).
func FuzzSalvage(f *testing.F) {
	valid := streamTrapDense(f, Options{SnapshotInterval: 50_000_000, KeyframeEvery: 2, EventBatch: 32})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)/4*3])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/8] ^= 0x01
	f.Add(flipped[:len(flipped)-20])
	f.Add([]byte(traceMagic))
	f.Add(append([]byte(traceMagic), TraceVersion, 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		stats, err := SalvageTrace(bytes.NewReader(data), &out)
		if err != nil {
			return
		}
		if stats.Checkpoints == 0 {
			t.Fatal("salvage succeeded with zero checkpoints")
		}
		// The output must be a well-formed container whose every segment
		// decodes...
		if _, err := NewLazyTrace(bytes.NewReader(out.Bytes()), int64(out.Len()), 0); err != nil {
			t.Fatalf("salvaged output does not open: %v", err)
		}
		tr := readBack(t, out.Bytes())
		if len(tr.Checkpoints) != stats.Checkpoints || len(tr.Events) != stats.Events {
			t.Fatalf("salvaged output holds %d/%d checkpoints/events, stats claim %d/%d",
				len(tr.Checkpoints), len(tr.Events), stats.Checkpoints, stats.Events)
		}
		// ...and a fixed point of salvage itself.
		var again bytes.Buffer
		if _, err := SalvageTrace(bytes.NewReader(out.Bytes()), &again); err != nil {
			t.Fatalf("salvaged output does not re-salvage: %v", err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatal("salvage is not a fixed point")
		}
	})
}

// TestEnrichedTruncationProbe: the probe names the damage offset and
// last intact segment so hxreplay can point users at salvage.
func TestEnrichedTruncationProbe(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 40_000_000})
	bounds := segmentBoundaries(t, data)
	cut := bounds[len(bounds)-2] // drop the index and trailer
	path := filepath.Join(t.TempDir(), "cut.trc")
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	// The normal open path refuses the truncated file...
	if _, err := OpenSourceFile(path, 0); err == nil {
		t.Fatal("truncated trace opened cleanly")
	}
	// ...and the probe explains where and why.
	p, err := ProbeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.TruncatedAt != cut {
		t.Fatalf("probe names offset %d, file was cut at %d", p.TruncatedAt, cut)
	}
	if !strings.Contains(p.Damage, "index") && !strings.Contains(p.Damage, "ends") {
		t.Fatalf("damage description %q does not describe the missing tail", p.Damage)
	}
	if p.LastSegment == "" {
		t.Fatal("probe lost the last intact segment kind")
	}
}
