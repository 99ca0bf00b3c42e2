package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lvmm/internal/replay"
)

// writeTrace saves a synthetic timeline (one stub checkpoint, a fixed end
// seal) as a v3 trace file.
func writeTrace(t *testing.T, name string, events ...replay.Event) string {
	t.Helper()
	tr := &replay.Trace{
		Events:      events,
		Checkpoints: []replay.Checkpoint{{}},
		EndCycle:    10_000,
		EndInstr:    5_000,
		EndDigest:   0xfeed,
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffComparesInputBytes: two timelines that differ only in the bytes
// (or the channel) of an input event must diff as divergent at that
// event, not as equivalent.
func TestDiffComparesInputBytes(t *testing.T) {
	input := func(ch uint8, data string) replay.Event {
		return replay.Event{Kind: replay.EvInput, Cycle: 100, Instr: 50, Chan: ch, Data: []byte(data)}
	}
	timer := replay.Event{Kind: replay.EvTimer, Cycle: 200, Instr: 90}
	base := writeTrace(t, "base.trc", timer, input(1, "ls\n"))
	for _, c := range []struct {
		name string
		path string
		want string
	}{
		{"itself", base, "traces are equivalent: 2 events"},
		{"other bytes", writeTrace(t, "bytes.trc", timer, input(1, "rm\n")), "first divergence at event 1"},
		{"other channel", writeTrace(t, "chan.trc", timer, input(0, "ls\n")), "first divergence at event 1"},
		{"extra event", writeTrace(t, "long.trc", timer, input(1, "ls\n"), timer), "has 1 more"},
	} {
		var out strings.Builder
		if err := diffTraces(&out, base, c.path); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: diff reported %q, want %q", c.name, out.String(), c.want)
		}
	}
}
