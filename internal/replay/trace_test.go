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
