package machine

import (
	"bytes"
	"testing"
)

// fullClearRestore is the reference Restore: clear all of RAM, copy the
// chunks back, and rebuild the coverage map from them.
func fullClearRestore(m *Machine, s *Snapshot) {
	ram := m.Bus.RAM()
	clear(ram)
	for _, ch := range s.RAM {
		copy(ram[ch.Addr:], ch.Data)
	}
	m.restoreState(s)
	m.CPU.SetWriteCoverage(0)
	for _, ch := range s.RAM {
		m.CPU.AddWriteCoverage(ch.Addr, uint32(len(ch.Data)))
	}
}

// poke writes n nonzero bytes at addr through the bus, so the
// write-coverage map records them.
func poke(t *testing.T, m *Machine, addr uint32, n int, seed byte) {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = (seed + byte(i)) | 1
	}
	if !m.Bus.DMAWrite(addr, data) {
		t.Fatalf("poke %#x+%d outside RAM", addr, n)
	}
}

// TestRestoreCoverageExact pins the coverage-bounded Restore: a machine
// with stray bytes in many coverage blocks — inside the snapshot's
// chunks, in the gaps between them, in blocks no chunk touches, and in
// the saturated bit-63 region of a machine above 64 MB — must restore to
// the byte-identical RAM and coverage map a restore that clears all of
// memory produces, for a keyframe and for a keyframe-plus-delta chain.
func TestRestoreCoverageExact(t *testing.T) {
	const mb = 1 << 20
	for _, ramBytes := range []int{16 * mb, 66 * mb} {
		cfg := Config{RAMBytes: ramBytes, ResetPC: 0x1000}
		src := New(cfg)
		size := uint32(len(src.Bus.RAM()))
		top := size - mb/2 // last block; bit 63 on the 66 MB machine

		// The snapshot image: chunks in block 0, two chunks with a gap in
		// block 2, and one at the top of memory.
		poke(t, src, 0x1000, 300, 1)
		poke(t, src, 2*mb+0x10000, 5000, 2)
		poke(t, src, 2*mb+0x50000, 100, 3)
		poke(t, src, top, 4096, 4)
		src.CPU.SetDirtyTracking(true)
		key := src.Snapshot()
		if len(key.RAM) < 4 {
			t.Fatalf("keyframe holds %d chunks, want ≥ 4", len(key.RAM))
		}
		src.CPU.ResetDirtyPages()
		poke(t, src, 2*mb+0x10100, 64, 5)
		poke(t, src, 9*mb, 4096, 6)
		d1, _ := src.SnapshotDelta()
		src.CPU.ResetDirtyPages()
		poke(t, src, 9*mb+8192, 64, 7)
		poke(t, src, size-3*mb, 64, 8)
		d2, _ := src.SnapshotDelta()

		strays := []uint32{
			0x1010, 0x3000, // inside and after block 0's chunk
			2*mb + 0x10010, 2*mb + 0x30000, 2*mb + 0x50000 + 50, 2*mb + 0x60000, // block 2
			5*mb + 7, 9*mb + 100, // blocks with no keyframe chunk
			top - 10, size - 64, // around the top chunk
		}
		if size > 64*mb {
			strays = append(strays, 63*mb+5, 64*mb+3, 65*mb) // all under bit 63
		}
		dirty := func() *Machine {
			m := New(cfg)
			for i, a := range strays {
				poke(t, m, a, 40, byte(0x80+i))
			}
			return m
		}

		for _, chain := range []bool{false, true} {
			name := map[bool]string{false: "keyframe", true: "delta chain"}[chain]
			restore := func(m *Machine, full func(*Machine, *Snapshot)) {
				full(m, key)
				if chain {
					m.ApplyRAMDelta(d1)
					m.RestoreDelta(d2)
				}
			}
			got, ref := dirty(), dirty()
			restore(got, (*Machine).Restore)
			restore(ref, fullClearRestore)
			if i := firstDiff(got.Bus.RAM(), ref.Bus.RAM()); i >= 0 {
				t.Fatalf("%d MB %s: RAM differs from a full-clear restore at %#x: %#x, want %#x",
					size/mb, name, i, got.Bus.RAM()[i], ref.Bus.RAM()[i])
			}
			if g, w := got.CPU.WriteCoverage(), ref.CPU.WriteCoverage(); g != w {
				t.Fatalf("%d MB %s: coverage %#x, full-clear restore gives %#x", size/mb, name, g, w)
			}
			if chain && !bytes.Equal(got.Bus.RAM(), src.Bus.RAM()) {
				t.Fatalf("%d MB %s: RAM differs from the recorded machine", size/mb, name)
			}
		}
	}
}

// firstDiff returns the first index where a and b (equal lengths)
// differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
