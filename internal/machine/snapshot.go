package machine

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"lvmm/internal/cpu"
	"lvmm/internal/hw/nic"
	"lvmm/internal/hw/pic"
	"lvmm/internal/hw/pit"
	"lvmm/internal/hw/scsi"
	"lvmm/internal/hw/uart"
	"lvmm/internal/isa"
)

// Snapshot is the complete serializable machine state: clock and
// accounting, CPU (including TLB), every device, and physical memory.
//
// The event queue is deliberately NOT part of the snapshot — scheduled
// events are closures and cannot be serialized. Instead, every component
// that schedules events keeps its pending work derivable from its own
// state (an in-flight SCSI transfer, the NIC wire horizon, the PIT phase),
// and Restore re-arms those events at their original absolute cycles.
// A monitor's virtual timer re-arms the same way through vmm.Restore.
//
// Known limitation: re-armed events get fresh sequence numbers in a fixed
// device order, so when two pending events from *different* devices were
// due at the *same* cycle, their FIFO tie-break after a restore may
// differ from the original run's. Replay verification (internal/replay)
// detects the resulting divergence at the first deviating interrupt or
// frame rather than silently accepting it; exact tie reproduction would
// require serializing per-event sequence numbers through every device.
type Snapshot struct {
	Clock   uint64
	Idle    uint64
	Monitor uint64
	Seq     uint64

	GuestIdle     bool
	StopReason    StopReason
	ExitCode      uint32
	GuestCounters [8]uint32
	PollCountdown int

	// Fault-injection progress (zero when no plan is installed; decoding
	// pre-fault snapshots leaves them zero, which is also correct).
	IRQDelivered   uint64
	FaultsInjected uint64

	Console []byte

	CPU  cpu.State
	PIC  pic.State
	PIT  pit.State
	Dbg  uart.State
	Cons uart.State
	SCSI [3]scsi.State
	NIC  nic.State

	// RAM is stored sparsely: only chunks containing a nonzero byte.
	// On a 64 MB machine whose guest touches a few MB this keeps
	// snapshots proportional to the working set, not the installed RAM.
	RAMSize uint32
	RAM     []RAMChunk
}

// RAMChunk is one contiguous run of physical memory bytes.
type RAMChunk struct {
	Addr uint32
	Data []byte
}

// ramChunkSize is the sparse-capture granularity.
const ramChunkSize = 64 << 10

// Snapshot captures the machine state. Hooks (IRQ sink, idle hook, traces)
// and device wiring (disk data sources, frame sinks) are configuration,
// not state, and are not captured; Restore into a machine built with the
// same configuration reproduces the run exactly.
//
// The returned Snapshot is fully self-contained: every buffer (RAM
// chunks, console, UART queues, device state) is a deep copy that
// aliases nothing in the live machine. The replay recorder relies on
// this to hand snapshots to its async serialization pipeline by
// ownership transfer while the machine keeps running —
// TestSnapshotSelfContained pins the contract. The same holds for
// SnapshotDelta.
func (m *Machine) Snapshot() *Snapshot {
	s := m.snapshotState()
	ram := m.Bus.RAM()
	// The CPU's write-coverage map proves blocks that were never
	// written are still zero — the sparse scan skips them instead of
	// walking all of installed memory. (ramChunkSize divides the 1 MB
	// coverage granule, so a chunk maps to exactly one coverage bit.)
	cov := m.CPU.WriteCoverage()
	for off := 0; off < len(ram); off += ramChunkSize {
		b := uint(off >> cpu.CovShift)
		if b > 63 {
			b = 63
		}
		if cov&(1<<b) == 0 {
			continue
		}
		end := off + ramChunkSize
		if end > len(ram) {
			end = len(ram)
		}
		if !allZero(ram[off:end]) {
			s.RAM = append(s.RAM, RAMChunk{
				Addr: uint32(off),
				Data: append([]byte(nil), ram[off:end]...),
			})
		}
	}
	return s
}

// SnapshotDelta captures a delta snapshot: the complete non-RAM state
// (CPU, devices, clock and accounting — all small), but only the RAM
// pages the CPU's dirty-page tracking marked since the last
// ResetDirtyPages. Adjacent dirty pages coalesce into one chunk. A delta
// is only restorable together with the state it was taken against: a
// restore walk (RestoreStart) visits it, then each earlier delta of its
// chain, then the keyframe, and each page takes its content from the
// newest of them that holds it.
//
// The second return is false when dirty tracking is off; the snapshot is
// then a full sparse capture (identical to Snapshot) and must be treated
// as a keyframe — a full sparse capture omits all-zero chunks, so
// applying it as a delta would leave stale bytes from the base.
func (m *Machine) SnapshotDelta() (*Snapshot, bool) {
	dirty := m.CPU.DirtyPages()
	if dirty == nil {
		return m.Snapshot(), false
	}
	s := m.snapshotState()
	ram := m.Bus.RAM()
	pages := (uint32(len(ram)) + isa.PageMask) >> isa.PageShift
	for p := uint32(0); p < pages; {
		if dirty[p>>6]&(1<<(p&63)) == 0 {
			p++
			continue
		}
		run := p
		for run < pages && dirty[run>>6]&(1<<(run&63)) != 0 {
			run++
		}
		start := p << isa.PageShift
		end := run << isa.PageShift
		if end > uint32(len(ram)) {
			end = uint32(len(ram))
		}
		s.RAM = append(s.RAM, RAMChunk{
			Addr: start,
			Data: append([]byte(nil), ram[start:end]...),
		})
		p = run
	}
	return s, true
}

// snapshotState captures everything except physical memory contents.
func (m *Machine) snapshotState() *Snapshot {
	s := &Snapshot{
		Clock:          m.clock,
		Idle:           m.idle,
		Monitor:        m.monitor,
		Seq:            m.seq,
		GuestIdle:      m.guestIdle,
		StopReason:     m.stopReason,
		ExitCode:       m.exitCode,
		GuestCounters:  m.GuestCounters,
		PollCountdown:  m.pollCountdown,
		IRQDelivered:   m.irqDelivered,
		FaultsInjected: m.faultsInjected,
		Console:        append([]byte(nil), m.Console.Bytes()...),
		CPU:            m.CPU.Snapshot(),
		PIC:            m.PIC.State(),
		PIT:            m.PIT.State(),
		Dbg:            m.Dbg.State(),
		Cons:           m.Cons.State(),
		NIC:            m.NIC.State(),
	}
	for i := range m.SCSI {
		s.SCSI[i] = m.SCSI[i].State()
	}
	s.RAMSize = m.Bus.RAMSize()
	return s
}

// Restore rewinds the machine to a snapshot: scalar state, CPU, RAM, and
// devices. The event queue is cleared and devices re-arm their pending
// events at the snapshot's absolute cycles. The machine must have the
// same RAM size as the snapshot (i.e., be built from the same Config).
// It is the restore walk of a one-member chain, started from every page.
func (m *Machine) Restore(s *Snapshot) {
	set := m.RestoreStart(nil)
	m.RestorePages(s, set)
	m.RestoreFinish(s, set)
}

// RestoreSet is the state of one restore walk, the one way RAM is
// rewound to a snapshot's image. The walk starts from a page set — every
// page for a full restore, the pages dirtied since the image for an undo
// restore — and visits the snapshot's chain newest member first: the
// snapshot, the delta it was taken against, and so on down to a
// keyframe. RestorePages gives each page still in the set its content in
// the member at hand, so a page takes it from the newest member holding
// it; RestoreFinish zeroes the pages no member held and restores the
// non-RAM state of the snapshot.
type RestoreSet struct {
	pages  []uint64 // still to rewrite, one bit per page (the layout of cpu.DirtyPages)
	left   int      // pages still in the set
	oldCov uint64   // coverage map before the walk: no other block holds a stray byte
	newCov uint64   // coverage map the walk leaves
}

// RestoreStart begins a restore walk from the page set dirty, or from
// every page of RAM when dirty is nil; dirty itself is not modified. A
// walk from every page rewrites all of RAM, so it rebuilds the
// write-coverage map exactly from the pages it copies. A walk from a
// dirty set leaves every other page as it was, so the map only grows.
func (m *Machine) RestoreStart(dirty []uint64) *RestoreSet {
	set := &RestoreSet{oldCov: m.CPU.WriteCoverage()}
	if dirty != nil {
		set.pages, set.newCov = slices.Clone(dirty), set.oldCov
		for _, w := range dirty {
			set.left += bits.OnesCount64(w)
		}
		return set
	}
	n := (len(m.Bus.RAM()) + isa.PageMask) >> isa.PageShift
	set.pages, set.left = make([]uint64, (n+63)/64), n
	for p := range n {
		set.pages[p>>6] |= 1 << (p & 63)
	}
	return set
}

// RestorePages gives each page of s's RAM chunks that is still in the
// set its content in s and takes it out, and reports whether any page is
// left. On a page the CPU has decoded instructions or superblocks of,
// each word the copy changes first has what the CPU derived from it
// dropped (cpu.DropWord) — as a store there would — so the CPU's caches
// stay warm across the restore wherever the bytes stay the same. Chunks
// hold whole pages inside RAM (keyframes capture 64 KB chunks, deltas
// page runs, and the trace reader refuses any other); only a chunk
// ending at the end of RAM may end in part of a page. The coverage map
// grows with every copy, so it stays a superset of the written blocks
// however far the walk gets.
func (m *Machine) RestorePages(s *Snapshot, set *RestoreSet) bool {
	ram := m.Bus.RAM()
	var cov uint64
	for _, ch := range s.RAM {
		for i := 0; i < len(ch.Data); i += isa.PageSize {
			off := int(ch.Addr) + i
			p := off >> isa.PageShift
			if set.pages[p>>6]&(1<<(p&63)) == 0 {
				continue
			}
			set.pages[p>>6] &^= 1 << (p & 63)
			set.left--
			img := ch.Data[i:min(i+isa.PageSize, len(ch.Data))]
			if m.CPU.PageDerived(uint32(p)) {
				m.dropChanged(uint32(off), img)
			}
			copy(ram[off:], img)
			cov |= 1 << min(off>>cpu.CovShift, 63)
		}
	}
	set.newCov |= cov
	m.CPU.SetWriteCoverage(m.CPU.WriteCoverage() | cov)
	return set.left > 0
}

// zeroPage is the image RestoreFinish gives a page no member held.
var zeroPage [isa.PageSize]byte

// dropChanged has the CPU drop what it derived from each word of the RAM
// at pa that img, about to overwrite it, changes (cpu.DropWord).
func (m *Machine) dropChanged(pa uint32, img []byte) {
	cur := m.Bus.RAM()[pa:]
	if bytes.Equal(cur[:len(img)], img) {
		return
	}
	for w := 0; w < len(img); w += 4 {
		if !bytes.Equal(cur[w:min(w+4, len(img))], img[w:min(w+4, len(img))]) {
			m.CPU.DropWord(pa + uint32(w))
		}
	}
}

// RestoreFinish ends the walk to s. The pages still in the set were held
// by no member, so they are zero in s's image: they are cleared where
// the coverage map from before the walk marks their 1 MB block as
// possibly written (dropping what the CPU derived from each nonzero word
// of such a page, as RestorePages does), and are zero already everywhere
// else. Then the map is set to the walk's and the complete non-RAM state
// is restored. As with Release, a direct write to RAM that bypassed the
// bus would escape the map and survive the restore.
func (m *Machine) RestoreFinish(s *Snapshot, set *RestoreSet) {
	ram := m.Bus.RAM()
	for i, w := range set.pages {
		// Word i holds the 64 pages at i<<(6+PageShift), inside one block.
		if w == 0 || set.oldCov&(1<<min(i<<(6+isa.PageShift)>>cpu.CovShift, 63)) == 0 {
			continue
		}
		for ; w != 0; w &= w - 1 {
			p := i<<6 + bits.TrailingZeros64(w)
			lo := p << isa.PageShift
			pg := ram[lo:min(lo+isa.PageSize, len(ram))]
			if m.CPU.PageDerived(uint32(p)) {
				m.dropChanged(uint32(lo), zeroPage[:len(pg)])
			}
			clear(pg)
		}
	}
	m.CPU.SetWriteCoverage(set.newCov)
	m.restoreState(s)
}

// restoreState rewinds everything except physical memory contents:
// scalar state, CPU (whose derived caches stay warm: the walk dropped
// what it derived from the words it changed), and devices, which re-arm
// their pending events at the snapshot's absolute cycles.
func (m *Machine) restoreState(s *Snapshot) {
	m.clock = s.Clock
	m.idle = s.Idle
	m.monitor = s.Monitor
	m.guestIdle = s.GuestIdle
	m.stopped = false
	m.stopReason = s.StopReason
	m.exitCode = s.ExitCode
	m.GuestCounters = s.GuestCounters
	m.pollCountdown = s.PollCountdown
	m.Console.Reset()
	m.Console.Write(s.Console)

	// Drop the current timeline's scheduled events; devices re-arm below.
	m.events = m.events[:0]
	m.seq = s.Seq

	m.CPU.Restore(s.CPU)
	m.PIC.Restore(s.PIC)
	m.PIT.Restore(s.PIT)
	m.Dbg.Restore(s.Dbg)
	m.Cons.Restore(s.Cons)
	for i := range m.SCSI {
		m.SCSI[i].Restore(s.SCSI[i])
	}
	m.NIC.Restore(s.NIC)

	m.irqDelivered = s.IRQDelivered
	m.faultsInjected = s.FaultsInjected
	m.rearmSpurious()
}

// clearCovered zeroes ram[lo:hi] wherever the coverage map cov marks the
// 1 MB block as possibly written; bit 63 stands for everything from
// 63 MB up.
func clearCovered(ram []byte, cov uint64, lo, hi int) {
	for lo < hi {
		b := uint(lo >> cpu.CovShift)
		end := hi
		if b >= 63 {
			b = 63
		} else if e := (int(b) + 1) << cpu.CovShift; e < end {
			end = e
		}
		if cov&(1<<b) != 0 {
			clear(ram[lo:end])
		}
		lo = end
	}
}

// allZero scans word-wise: the keyframe sparse scan walks all of
// physical memory, and almost every chunk of a real guest is zero, so
// the 8-byte loads (OR-folded eight at a time, advancing the slice so
// the compiler drops the bounds checks) are what make full keyframes
// cheap.
func allZero(b []byte) bool {
	for len(b) >= 64 {
		x := binary.LittleEndian.Uint64(b) |
			binary.LittleEndian.Uint64(b[8:]) |
			binary.LittleEndian.Uint64(b[16:]) |
			binary.LittleEndian.Uint64(b[24:]) |
			binary.LittleEndian.Uint64(b[32:]) |
			binary.LittleEndian.Uint64(b[40:]) |
			binary.LittleEndian.Uint64(b[48:]) |
			binary.LittleEndian.Uint64(b[56:])
		if x != 0 {
			return false
		}
		b = b[64:]
	}
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
