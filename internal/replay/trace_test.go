package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lvmm/internal/machine"
)

func TestNearestCheckpoint(t *testing.T) {
	lt := lazyOpen(t, encode(t, &Trace{Checkpoints: []Checkpoint{
		{Index: 0, Instr: 0},
		{Index: 1, Instr: 100},
		{Index: 2, Instr: 250},
	}}), 0)
	cases := []struct {
		pos  uint64
		want int
	}{
		{0, 0}, {50, 0}, {100, 1}, {249, 1}, {250, 2}, {1 << 40, 2},
	}
	for _, c := range cases {
		if got := nearestCheckpointIdx(lt, c.pos); got != c.want {
			t.Errorf("nearestCheckpointIdx(%d) = %d, want %d", c.pos, got, c.want)
		}
	}
	if lt.StartInstr() != 0 {
		t.Errorf("StartInstr = %d", lt.StartInstr())
	}
}

// TestOpenRejectsGarbage: the opener refuses input whose header is not
// a trace header (parseHeader), and a v2 header over a blob that does
// not decode.
func TestOpenRejectsGarbage(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"not a trace", []byte("not a trace at all"), "not a trace"},
		{"magic only", []byte(traceMagic), "header"},
		{"wrong version", append([]byte(traceMagic), 0xFF, 0xFF, 0, 0), "version"},
		{"v2 garbage", append([]byte(traceMagic), traceVersionV2, 0, 1, 2, 3), "trace payload"},
	} {
		_, err := NewLazyTrace(bytes.NewReader(c.data), int64(len(c.data)), 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: opener returned %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EvIRQ, EvTimer, EvFrame, EvInput} {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// corruptKeyframeCRC returns a copy of a v3 container with one byte of
// its first keyframe segment's gzip CRC trailer flipped, plus that
// segment's position. The gob payload still decodes; only the trailer
// check can notice the damage.
func corruptKeyframeCRC(t testing.TB, data []byte) ([]byte, int) {
	t.Helper()
	sr, err := NewSegmentReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, si := range sr.Segments() {
		if si.Kind == segKeyframe {
			bad := append([]byte(nil), data...)
			// A gzip member ends with CRC-32 then ISIZE, 4 bytes each.
			bad[si.Offset+si.Bytes-8] ^= 0xFF
			return bad, i
		}
	}
	t.Fatal("trace has no keyframe segment")
	return nil, 0
}

// TestDecodeSegmentChecksCRC pins that a segment decode drains the gzip
// stream and verifies its CRC: a keyframe whose trailer is corrupt must
// fail to decode even though its gob value is intact.
func TestDecodeSegmentChecksCRC(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 50_000_000, KeyframeEvery: 2})
	bad, seg := corruptKeyframeCRC(t, data)
	for _, c := range []struct {
		data []byte
		ok   bool
	}{{data, true}, {bad, false}} {
		sr, err := NewSegmentReader(bytes.NewReader(c.data), int64(len(c.data)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.DecodeCheckpoint(seg); (err == nil) != c.ok {
			t.Fatalf("keyframe decode (intact CRC %v): %v", c.ok, err)
		}
	}
}

// editCheckpoint returns a copy of a v3 container, rewritten through
// Trace.Write, in which edit has changed checkpoint i.
func editCheckpoint(t testing.TB, data []byte, i int, edit func(cp *Checkpoint)) []byte {
	t.Helper()
	tr := readBack(t, data)
	edit(&tr.Checkpoints[i])
	return encode(t, tr)
}

// outOfRAM appends a chunk at RAM + 4 KB to a checkpoint's snapshot: the
// keyframe edit that once made the rewind of NewReplayerSource panic.
func outOfRAM(cp *Checkpoint) {
	s := cp.Machine
	s.RAM = append(s.RAM, machine.RAMChunk{Addr: s.RAMSize + 4096, Data: make([]byte, 4096)})
}

// TestRestoreRefusesBadRAMChunks pins the trust boundary in front of the
// restore walk. A checkpoint with no machine snapshot, or whose RAM
// chunks start off a page boundary, hold part of a page, overlap, or lie
// outside RAM, is refused when decoded: a keyframe chunk at RAM + 4 KB
// must fail the rewind in NewReplayerSource with an error, not a
// slice-bounds panic, and a chunk running past the end of RAM must not
// be truncated silently. A chain member whose RAM size differs from the
// machine's is refused by the walk that reaches it, also when it is not
// the checkpoint restored.
func TestRestoreRefusesBadRAMChunks(t *testing.T) {
	data := streamTrapDense(t, Options{SnapshotInterval: 15_000_000, KeyframeEvery: 4, EventBatch: 32})
	cps := readBack(t, data).Checkpoints
	if len(cps) < 3 || !cps[2].Delta || cps[2].Base != cps[1].Index {
		t.Fatal("trace's checkpoint 2 is not a delta taken against checkpoint 1")
	}
	m, v := buildTrapDense(t, false)
	for _, c := range []struct {
		name             string
		edited, restored int
		mutate           func(cp *Checkpoint)
	}{
		{"chunk past RAM", 0, 0, outOfRAM},
		{"chunk running past RAM", 0, 0, func(cp *Checkpoint) {
			s := cp.Machine
			s.RAM = append(s.RAM, machine.RAMChunk{Addr: s.RAMSize - 4096, Data: make([]byte, 8192)})
		}},
		{"unaligned chunk", 0, 0, func(cp *Checkpoint) { cp.Machine.RAM[0].Addr += 16 }},
		{"part of a page", 0, 0, func(cp *Checkpoint) { cp.Machine.RAM[0].Data = cp.Machine.RAM[0].Data[:100] }},
		{"overlapping chunks", 0, 0, func(cp *Checkpoint) { cp.Machine.RAM = append(cp.Machine.RAM, cp.Machine.RAM[0]) }},
		{"no machine snapshot", 0, 0, func(cp *Checkpoint) { cp.Machine = nil }},
		{"chain member RAM size", 1, 2, func(cp *Checkpoint) { cp.Machine.RAMSize *= 2 }},
	} {
		bad := editCheckpoint(t, data, c.edited, c.mutate)
		rp, err := NewReplayerSource(lazyOpen(t, bad, math.MaxInt64), m, v, nil)
		if c.restored > 0 {
			if err != nil {
				t.Fatalf("%s: rewind to checkpoint 0: %v", c.name, err)
			}
			err = rp.restoreCheckpoint(c.restored)
		}
		if err == nil {
			t.Fatalf("%s: restoring checkpoint %d succeeded", c.name, c.restored)
		}
	}
}

// v2Blob encodes a trace as a legacy v2 file: the header, then one
// gzip(gob) blob of the whole Trace.
func v2Blob(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	buf.Write([]byte{traceVersionV2, 0})
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(tr); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenRejectsDuplicateCheckpointIDs pins that a trace in which two
// checkpoints carry the same id is refused at open, whether it is a v3
// container or a v2 blob the opener transcodes: a delta resolves its
// base by id, so a seek could otherwise restore onto the wrong
// checkpoint. The check lives in NewSegmentReader, which both paths
// reach.
func TestOpenRejectsDuplicateCheckpointIDs(t *testing.T) {
	tr := &Trace{
		Meta: TraceMeta{Version: traceVersionV2, Custom: true},
		Checkpoints: []Checkpoint{
			{Index: 0, Instr: 0},
			{Index: 0, Instr: 100},
		},
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"v3", encode(t, tr)}, {"v2", v2Blob(t, tr)}} {
		_, err := NewLazyTrace(bytes.NewReader(c.data), int64(len(c.data)), 0)
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("%s: opener returned %v for duplicate checkpoint ids", c.name, err)
		}
	}
	// The v2 blob is otherwise well formed: with distinct ids it opens.
	tr.Checkpoints[1].Index = 1
	data := v2Blob(t, tr)
	if lt := lazyOpen(t, data, 0); lt.NumCheckpoints() != 2 {
		t.Fatalf("v2 blob opened with %d checkpoints, want 2", lt.NumCheckpoints())
	}
}

// TestReadTraceMetaFile pins the metadata reader farm ingest and
// hxreplay info use: it reports the file's own format version, reads a
// v3 file's meta from the first segment alone (so a file cut just after
// it still answers), and refuses what is not a trace.
func TestReadTraceMetaFile(t *testing.T) {
	v3 := streamTrapDense(t, Options{SnapshotInterval: 50_000_000})
	bounds := segmentBoundaries(t, v3)
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		name    string
		path    string
		version int // 0: an error is expected
	}{
		{"v2 golden", goldenV2Path, traceVersionV2},
		{"v3", write("full.trc", v3), TraceVersion},
		{"v3 cut after meta", write("cut.trc", v3[:bounds[1]]), TraceVersion},
		{"v3 cut inside meta", write("inside.trc", v3[:bounds[1]-1]), 0},
		{"not a trace", write("text.trc", []byte("not a trace at all")), 0},
		{"wrong version", write("ver.trc", append([]byte(traceMagic), 0xFF, 0xFF, 0, 0)), 0},
		{"empty", write("empty.trc", nil), 0},
	} {
		meta, err := ReadTraceMetaFile(c.path)
		if c.version == 0 {
			if err == nil {
				t.Errorf("%s: accepted, meta %+v", c.name, meta)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if meta.Version != c.version {
			t.Errorf("%s: version %d, want %d", c.name, meta.Version, c.version)
		}
		if c.version == TraceVersion && !meta.Custom {
			t.Errorf("%s: meta lost the Custom marker: %+v", c.name, meta)
		}
	}
}
