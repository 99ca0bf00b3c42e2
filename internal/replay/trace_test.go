package replay

import (
	"bytes"
	"strings"
	"testing"
)

func TestNearestCheckpoint(t *testing.T) {
	tr := &Trace{Checkpoints: []Checkpoint{
		{Index: 0, Instr: 0},
		{Index: 1, Instr: 100},
		{Index: 2, Instr: 250},
	}}
	lt, err := tr.Lazy()
	if err != nil {
		t.Fatal(err)
	}
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
	if tr.StartInstr() != 0 || lt.StartInstr() != 0 {
		t.Errorf("StartInstr = %d / %d", tr.StartInstr(), lt.StartInstr())
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage accepted as a trace")
	}
	// Right magic, wrong version.
	bad := append([]byte(traceMagic), 0xFF, 0xFF)
	_, err := ReadTrace(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
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

// TestOpenRejectsDuplicateCheckpointIDs pins that a container in which
// two snapshot segments carry the same checkpoint id is refused at open
// by both the lazy and the resident reader: a delta resolves its base by
// id, so a seek could otherwise restore onto the wrong checkpoint.
func TestOpenRejectsDuplicateCheckpointIDs(t *testing.T) {
	tr := &Trace{Checkpoints: []Checkpoint{
		{Index: 0, Instr: 0},
		{Index: 0, Instr: 100},
	}}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLazyTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 0); err == nil {
		t.Error("NewLazyTrace accepted duplicate checkpoint ids")
	}
	if _, err := ReadTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("ReadTrace accepted duplicate checkpoint ids")
	}
	if _, err := tr.Lazy(); err == nil {
		t.Error("Trace.Lazy accepted duplicate checkpoint ids")
	}
}
