package machine

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// dirtyMachine builds a small machine and writes recognizable data
// through the bus at scattered addresses — low memory, a middle block,
// and the top block — so the write-coverage map has holes between set
// bits.
func dirtyMachine(t *testing.T) *Machine {
	t.Helper()
	m := New(Config{RAMBytes: 8 << 20})
	m.Bus.Write32(0x1000, 0xDEADBEEF)
	blob := make([]byte, 4096)
	for i := range blob {
		blob[i] = byte(i*7 + 3)
	}
	if !m.Bus.DMAWrite(5<<20|0x340, blob) {
		t.Fatal("DMAWrite out of range")
	}
	m.Bus.Write32(8<<20-8, 0x12345678)
	return m
}

// TestSnapshotCoverageExact pins the coverage-pruned keyframe scan: a
// snapshot taken with the CPU's real write-coverage map must equal one
// taken with coverage forced to "everything written" (a full sparse
// scan), chunk for chunk.
func TestSnapshotCoverageExact(t *testing.T) {
	m := dirtyMachine(t)
	cov := m.CPU.WriteCoverage()
	if cov == 0 || cov == ^uint64(0) {
		t.Fatalf("want a partial coverage map, got %#x", cov)
	}
	pruned := m.Snapshot()
	m.CPU.SetWriteCoverage(^uint64(0))
	full := m.Snapshot()
	if !reflect.DeepEqual(pruned.RAM, full.RAM) {
		t.Fatalf("pruned scan captured %d chunks, full scan %d — contents diverge",
			len(pruned.RAM), len(full.RAM))
	}
}

// TestSnapshotSelfContained pins the ownership-transfer contract the
// async recording pipeline depends on: every buffer inside a Snapshot
// is a deep copy, so the machine can keep running (and rewriting RAM,
// console, UART queues) while the pipeline serializes the snapshot on
// another goroutine.
func TestSnapshotSelfContained(t *testing.T) {
	m := dirtyMachine(t)
	m.Cons.PortWrite(0, 'h') // console buffer content
	snap := m.Snapshot()

	// Freeze the snapshot's current contents.
	ramCopies := make([][]byte, len(snap.RAM))
	for i, ch := range snap.RAM {
		ramCopies[i] = append([]byte(nil), ch.Data...)
	}
	consoleCopy := append([]byte(nil), snap.Console...)

	// Mutate the live machine everywhere the snapshot has buffers.
	for _, ch := range snap.RAM {
		for off := uint32(0); off < uint32(len(ch.Data)); off += 4 {
			m.Bus.Write32(ch.Addr+off, ^uint32(0))
		}
	}
	m.Cons.PortWrite(0, 'x')

	for i, ch := range snap.RAM {
		if !bytes.Equal(ch.Data, ramCopies[i]) {
			t.Fatalf("snapshot RAM chunk %d (addr %#x) changed when the live machine wrote — aliased, not copied", i, ch.Addr)
		}
	}
	if !bytes.Equal(snap.Console, consoleCopy) {
		t.Fatal("snapshot console buffer aliases the live console")
	}
}

// TestReleaseRecyclesZeroRAM pins the RAM pool's invariant: memory
// reclaimed from a released machine — whose coverage map says which
// blocks were dirtied — comes back fully zero for the next machine.
// A leak here would poison every later machine in the process, so the
// scan is exhaustive.
func TestReleaseRecyclesZeroRAM(t *testing.T) {
	for iter := 0; iter < 3; iter++ {
		m := dirtyMachine(t)
		// Also dirty via a snapshot restore path: restore raises coverage
		// from chunks, and release must honor that too.
		snap := m.Snapshot()
		m.Restore(snap)
		m.Release()

		m2 := New(Config{RAMBytes: 8 << 20})
		for i, b := range m2.Bus.RAM() {
			if b != 0 {
				t.Fatalf("iter %d: fresh machine RAM[%#x] = %#x — released machine leaked through the pool", iter, i, b)
			}
		}
		if cov := m2.CPU.WriteCoverage(); cov != 0 {
			t.Fatalf("iter %d: fresh machine starts with coverage %#x", iter, cov)
		}
		m2.Release()
	}
}

// TestReleasedRAMReusedAcrossGoroutines pins what the RAM free list is
// for: a machine built on another goroutine after garbage collections
// still reuses the slice a released machine gave back, zeroed. A
// sync.Pool misses here when the two goroutines run on different Ps,
// and loses the slice by the second GC.
func TestReleasedRAMReusedAcrossGoroutines(t *testing.T) {
	// Hold enough machines to empty the list, so the release below is
	// not dropped for want of room and is the next slice handed out.
	var held []*Machine
	for range runtime.GOMAXPROCS(0) {
		held = append(held, New(Config{RAMBytes: 8 << 20}))
	}
	defer func() {
		for _, m := range held {
			m.Release()
		}
	}()

	old := dirtyMachine(t)
	ram := &old.Bus.RAM()[0]
	released := make(chan struct{})
	go func() {
		old.Release()
		close(released)
	}()
	<-released
	runtime.GC()
	runtime.GC()

	built := make(chan *Machine)
	go func() { built <- New(Config{RAMBytes: 8 << 20}) }()
	m := <-built
	defer m.Release()
	if &m.Bus.RAM()[0] != ram {
		t.Fatal("the new machine allocated fresh RAM instead of reusing the released slice")
	}
	for i, b := range m.Bus.RAM() {
		if b != 0 {
			t.Fatalf("reused RAM[%#x] = %#x, want all zero", i, b)
		}
	}
}
