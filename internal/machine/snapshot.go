package machine

import (
	"encoding/binary"
	"math/bits"

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
// is only restorable on top of the state it was taken against (keyframe
// plus any intervening deltas, applied in order with ApplyRAMDelta).
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
//
// The write-coverage map proves a clear block is still zero, so only
// covered blocks are cleared, and within them only the bytes no chunk
// overwrites: one in-order pass clears the gap before each chunk, then
// copies it. As with Release, a direct write to RAM that bypassed the
// bus would escape the map and survive the restore.
func (m *Machine) Restore(s *Snapshot) {
	ram := m.Bus.RAM()
	cov := m.CPU.WriteCoverage()
	done := 0 // RAM below this offset is final
	for _, ch := range s.RAM {
		clearCovered(ram, cov, done, int(ch.Addr))
		if end := int(ch.Addr) + copy(ram[ch.Addr:], ch.Data); end > done {
			done = end
		}
	}
	clearCovered(ram, cov, done, len(ram))
	m.restoreState(s)
	// Every byte outside the restored chunks is now zero (covered blocks
	// were cleared, uncovered ones were zero already), so the
	// write-coverage map restarts at exactly the restored image's extent.
	m.CPU.SetWriteCoverage(0)
	for _, ch := range s.RAM {
		m.CPU.AddWriteCoverage(ch.Addr, uint32(len(ch.Data)))
	}
}

// ApplyRAMDelta copies a delta snapshot's RAM chunks over the current
// memory image without zeroing anything else. The machine must already
// hold the state the delta was taken against (the keyframe plus earlier
// deltas of the chain); non-RAM state is untouched, so intermediate
// chain steps cost only the page copies. Callers must finish the chain
// with RestoreDelta (or a full Restore) so the CPU decode cache is
// re-synchronized with the rewritten memory.
func (m *Machine) ApplyRAMDelta(s *Snapshot) {
	ram := m.Bus.RAM()
	for _, ch := range s.RAM {
		copy(ram[ch.Addr:], ch.Data)
		m.CPU.AddWriteCoverage(ch.Addr, uint32(len(ch.Data)))
	}
}

// RestoreDelta applies the final delta of a checkpoint chain: its RAM
// pages on top of the current image, then the complete non-RAM state.
func (m *Machine) RestoreDelta(s *Snapshot) {
	m.ApplyRAMDelta(s)
	m.restoreState(s)
}

// CopyPages is the page-granular ApplyRAMDelta: every page set in pages
// (one bit per physical page, the layout of cpu.DirtyPages) that one of
// s's RAM chunks holds gets the chunk's bytes, and its bit is cleared.
// An undo restore calls it for each member of a checkpoint's chain,
// newest first, so each page takes its content from the newest member
// holding it. Chunks hold whole pages: keyframes capture 64 KB chunks
// and deltas page runs.
func (m *Machine) CopyPages(s *Snapshot, pages []uint64) {
	ram := m.Bus.RAM()
	for _, ch := range s.RAM {
		end := min(int(ch.Addr)+len(ch.Data), len(ram))
		for off := int(ch.Addr) &^ isa.PageMask; off < end; off += isa.PageSize {
			p := off >> isa.PageShift
			if pages[p>>6]&(1<<(p&63)) == 0 {
				continue
			}
			pages[p>>6] &^= 1 << (p & 63)
			lo, hi := max(off, int(ch.Addr)), min(off+isa.PageSize, end)
			copy(ram[lo:hi], ch.Data[lo-int(ch.Addr):])
			m.CPU.AddWriteCoverage(uint32(lo), uint32(hi-lo))
		}
	}
}

// RestorePages finishes an undo restore to s once CopyPages has walked
// s's chain: the pages still set in pages were held by no member, so
// they are zero in s's image and are cleared here, and then the complete
// non-RAM state is restored as RestoreDelta does. Every page not set in
// pages before the walk must already hold s's image. The coverage map
// only grows, so it stays a superset of the written blocks.
func (m *Machine) RestorePages(s *Snapshot, pages []uint64) {
	ram := m.Bus.RAM()
	for i, word := range pages {
		for word != 0 {
			p := i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if lo := p << isa.PageShift; lo < len(ram) {
				clear(ram[lo:min(lo+isa.PageSize, len(ram))])
			}
		}
	}
	m.restoreState(s)
}

// restoreState rewinds everything except physical memory contents:
// scalar state, CPU (whose Restore also flushes the decode cache, since
// RAM was rewritten underneath it), and devices, which re-arm their
// pending events at the snapshot's absolute cycles.
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
