package machine

import (
	"bytes"
	"testing"
)

// writerKernel scribbles a moving pointer across memory so successive
// snapshot windows dirty different pages.
const writerKernel = `
        .org 0x1000
        _start:
            li   r1, 0x100000     ; write cursor
            li   r2, 0
        loop:
            sw   r2, 0(r1)
            addi r1, r1, 64
            addi r2, r2, 1
            b    loop
    `

// TestDeltaSnapshotRestoreMatchesFull drives the delta-snapshot
// primitive directly: a keyframe, two delta windows, and a second
// machine restored by walking the delta chain must be byte-identical (RAM
// and registers) to the recording machine at the final point — while
// the deltas stay small (only the dirtied pages).
func TestDeltaSnapshotRestoreMatchesFull(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	loadKernel(t, m, writerKernel)
	m.CPU.SetDirtyTracking(true)

	m.Run(50_000)
	key := m.Snapshot()
	m.CPU.ResetDirtyPages()

	m.Run(100_000)
	d1, ok := m.SnapshotDelta()
	if !ok {
		t.Fatal("SnapshotDelta fell back to a full capture with tracking on")
	}
	m.CPU.ResetDirtyPages()

	m.Run(150_000)
	d2, ok := m.SnapshotDelta()
	if !ok {
		t.Fatal("SnapshotDelta fell back to a full capture with tracking on")
	}
	full := m.Snapshot()

	if len(d1.RAM) == 0 || len(d2.RAM) == 0 {
		t.Fatal("delta snapshots captured no dirty pages")
	}
	deltaBytes := 0
	for _, ch := range d2.RAM {
		deltaBytes += len(ch.Data)
	}
	fullBytes := 0
	for _, ch := range full.RAM {
		fullBytes += len(ch.Data)
	}
	if deltaBytes >= fullBytes {
		t.Fatalf("delta (%d bytes) is not smaller than the full snapshot (%d bytes)", deltaBytes, fullBytes)
	}

	// Materialize on a second machine: walk the chain newest first.
	m2 := New(Config{ResetPC: 0x1000})
	loadKernel(t, m2, writerKernel)
	walk(m2, nil, d2, d1, key)

	if !bytes.Equal(m2.Bus.RAM(), m.Bus.RAM()) {
		t.Fatal("chain-restored RAM differs from the recorded machine")
	}
	if m2.CPU.Regs != m.CPU.Regs || m2.CPU.PC != m.CPU.PC || m2.Clock() != m.Clock() {
		t.Fatalf("chain-restored CPU state differs: pc %08x/%08x clock %d/%d",
			m2.CPU.PC, m.CPU.PC, m2.Clock(), m.Clock())
	}

	// Skipping a chain link must NOT reproduce the state (the property
	// that makes keyframe fallbacks for untracked captures mandatory).
	m3 := New(Config{ResetPC: 0x1000})
	loadKernel(t, m3, writerKernel)
	walk(m3, nil, d2, key)
	if bytes.Equal(m3.Bus.RAM(), m.Bus.RAM()) {
		t.Fatal("dropping delta d1 still reproduced the final RAM — deltas are not actually incremental")
	}

	// With tracking off, SnapshotDelta degrades loudly to a keyframe.
	m.CPU.SetDirtyTracking(false)
	if _, ok := m.SnapshotDelta(); ok {
		t.Fatal("SnapshotDelta claimed a delta with tracking off")
	}
}
