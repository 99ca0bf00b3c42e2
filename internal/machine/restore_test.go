package machine

import (
	"bytes"
	"runtime"
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/cpu"
	"lvmm/internal/isa"
)

// fullClearRestore is the reference restore of a chain given oldest
// member first: clear all of RAM, copy every member's chunks in order,
// rebuild the coverage map from all of them, and restore the newest
// member's non-RAM state.
func fullClearRestore(m *Machine, chain ...*Snapshot) {
	ram := m.Bus.RAM()
	clear(ram)
	m.CPU.SetWriteCoverage(0)
	for _, s := range chain {
		for _, ch := range s.RAM {
			copy(ram[ch.Addr:], ch.Data)
			m.CPU.AddWriteCoverage(ch.Addr, uint32(len(ch.Data)))
		}
	}
	m.restoreState(chain[len(chain)-1])
}

// walk restores m to chain[0] by the restore walk, chain newest member
// first, from the page set start (nil: every page), the way the replayer
// walks a checkpoint's chain: a full walk visits every member, a walk
// from a dirty set stops once no page is left. It returns the number of
// members visited.
func walk(m *Machine, start []uint64, chain ...*Snapshot) int {
	set := m.RestoreStart(start)
	n := 0
	for _, s := range chain {
		n++
		if !m.RestorePages(s, set) && start != nil {
			break
		}
	}
	m.RestoreFinish(chain[0], set)
	return n
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

// TestRestoreCoverageExact pins the coverage-bounded restore walk: a
// machine with stray bytes in many coverage blocks — inside the
// snapshot's chunks, in the gaps between them, in blocks no chunk
// touches, and in the saturated bit-63 region of a machine above 64 MB —
// must restore to the byte-identical RAM and coverage map a restore that
// clears all of memory produces, for a keyframe, for a keyframe-plus-delta
// chain, and for undo walks: from the dirty set of one delta window
// written after a full restore, one whose pages the deltas all hold, so
// the walk stops before the keyframe, and one with a page no member
// holds, which the walk zeroes after visiting the keyframe.
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

		chain := []*Snapshot{key, d1, d2}
		// undo fully restores d2, writes the given pages, and walks back
		// to d2 from their dirty set, which must end at the given member.
		undo := func(name string, pokes []uint32, members int) func(*Machine) {
			return func(m *Machine) {
				walk(m, nil, d2, d1, key)
				m.CPU.SetDirtyTracking(true)
				for i, a := range pokes {
					poke(t, m, a, 40, byte(0x40+i))
				}
				if n := walk(m, m.CPU.DirtyPages(), d2, d1, key); n != members {
					t.Fatalf("%d MB %s: the walk visited %d members, want %d", size/mb, name, n, members)
				}
			}
		}
		type restoreCase struct {
			name    string
			restore func(*Machine)
			ref     []*Snapshot
		}
		cases := []restoreCase{
			{"keyframe", func(m *Machine) { m.Restore(key) }, chain[:1]},
			{"delta chain", func(m *Machine) { walk(m, nil, d2, d1, key) }, chain},
			// Pages of d2, and one of d1 that d2 does not hold.
			{"undo", undo("undo", []uint32{9*mb + 8192 + 100, size - 3*mb, 2*mb + 0x10100}, 2), chain},
			// A page only the keyframe holds, and one no member holds.
			{"undo to keyframe", undo("undo to keyframe", []uint32{2*mb + 0x11010, 2*mb + 0x90000}, 3), chain},
		}

		for _, c := range cases {
			got, ref := dirty(), dirty()
			c.restore(got)
			fullClearRestore(ref, c.ref...)
			if i := firstDiff(got.Bus.RAM(), ref.Bus.RAM()); i >= 0 {
				t.Fatalf("%d MB %s: RAM differs from a full-clear restore at %#x: %#x, want %#x",
					size/mb, c.name, i, got.Bus.RAM()[i], ref.Bus.RAM()[i])
			}
			if g, w := got.CPU.WriteCoverage(), ref.CPU.WriteCoverage(); g != w {
				t.Fatalf("%d MB %s: coverage %#x, full-clear restore gives %#x", size/mb, c.name, g, w)
			}
			if len(c.ref) > 1 && !bytes.Equal(got.Bus.RAM(), src.Bus.RAM()) {
				t.Fatalf("%d MB %s: RAM differs from the recorded machine", size/mb, c.name)
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

// TestWarmRestoreMatchesCold: a restore keeps the CPU's decoded
// instructions, superblocks and native code, dropping only the pages the
// walk rewrites. A machine restored after running past the snapshot —
// its caches hot, native blocks compiled, and the hot loop's first word
// patched and executed since — must then run exactly like a fresh machine
// restored to the same snapshot and like Step (the forced-slow engine),
// slice by slice, with every superblock compiled to native code.
func TestWarmRestoreMatchesCold(t *testing.T) {
	defer cpu.SetNativeThreshold(cpu.SetNativeThreshold(1))
	const slice = 300_000
	boot := func() (*Machine, *asm.Image) {
		m := New(Config{RAMBytes: 1 << 20, ResetPC: 0x1000})
		return m, loadKernel(t, m, computeKernel)
	}
	warm, img := boot()
	if reason := warm.Run(3 * slice); reason != StopLimit {
		t.Fatalf("run to the snapshot: %v", reason)
	}
	snap := warm.Snapshot()
	// Patch the loop (addi r4, r4, 1 → +2) and run it hot.
	if !warm.Bus.Write32(img.Symbols["work"], isa.EncodeI(isa.OpADDI, 4, 4, 2)) {
		t.Fatal("patch outside RAM")
	}
	warm.Run(warm.Clock() + 3*slice)
	if sb := warm.CPU.SBStats(); runtime.GOARCH == "amd64" && sb.NativeRuns == 0 {
		t.Fatalf("the warm machine never ran native blocks: %v", sb)
	}
	warm.Restore(snap)

	cold, _ := boot()
	cold.Restore(snap)
	slow, _ := boot()
	slow.Restore(snap)
	forceSlowPath(t, slow)
	for i := 0; ; i++ {
		until := snap.Clock + uint64(i+1)*slice
		rw, rc, rs := warm.Run(until), cold.Run(until), slow.Run(until)
		compareMachines(t, warm, slow)
		compareMachines(t, cold, slow)
		if t.Failed() {
			t.Fatalf("slice %d diverged", i)
		}
		if rw != rs || rc != rs {
			t.Fatalf("slice %d: stop reasons warm %v, cold %v, slow %v", i, rw, rc, rs)
		}
		if rs == StopGuestDone {
			break
		}
	}
	if warm.GuestCounters[0] == 0 {
		t.Fatal("the loop retired no iterations")
	}
}

// TestRestoreFinishDropsZeroedPages: a page that is zero in a snapshot
// but held code when the restore began is zeroed by RestoreFinish, which
// must drop what the CPU derived from that code. The restored guest
// jumps there and must meet the zero word (an undefined opcode, whose
// trap handler halts), not the code it ran before the restore.
func TestRestoreFinishDropsZeroedPages(t *testing.T) {
	defer cpu.SetNativeThreshold(cpu.SetNativeThreshold(1))
	const page, handler = 0x20000, 0x3000 // page's 64 KB chunk is empty in the snapshot
	boot := func() *Machine {
		m := New(Config{RAMBytes: 1 << 20, ResetPC: 0x1000})
		for v := uint32(0); v < isa.NumVectors; v++ {
			m.Bus.Write32(v*4, handler)
		}
		m.Bus.Write32(handler, isa.EncodeR(isa.OpHLT, 0, 0, 0))
		m.Bus.Write32(0x1000, isa.EncodeJ(isa.OpJAL, 0, (page-0x1004)/4))
		return m
	}
	warm := boot()
	snap := warm.Snapshot()
	for i, w := range []uint32{
		isa.EncodeI(isa.OpADDI, 4, 4, 7),
		isa.EncodeI(isa.OpADDI, 5, 5, 1),
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	} {
		warm.Bus.Write32(page+uint32(i)*4, w)
	}
	warm.Run(100_000)
	if warm.CPU.Regs[4] != 7 {
		t.Fatalf("the code at %#x did not run: r4 = %d", page, warm.CPU.Regs[4])
	}
	warm.Restore(snap)
	cold := boot()
	cold.Restore(snap)
	warm.Run(100_000)
	cold.Run(100_000)
	compareMachines(t, warm, cold)
	if warm.CPU.Regs[4] != 0 || warm.CPU.Stat.Traps == 0 {
		t.Fatalf("after the restore the zeroed page ran stale code: r4 = %d, traps %d", warm.CPU.Regs[4], warm.CPU.Stat.Traps)
	}
}
