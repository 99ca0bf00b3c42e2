package replay

import (
	"encoding/binary"

	"lvmm/internal/cpu"
	"lvmm/internal/hw/pic"
	"lvmm/internal/hw/pit"
	"lvmm/internal/hw/uart"
	"lvmm/internal/machine"
	"lvmm/internal/vmm"
)

// Digest condenses the replay-relevant machine state into one value:
// physical memory, the architectural CPU state, the virtual clock and
// instruction count, every device's registers and in-flight work, and
// (when a monitor is attached) the guest's virtual CPU and virtual
// devices. Two runs with equal digests at equal positions are
// bit-identical for every state a debugger can observe.
// The hash is FNV-64a over the exact byte sequence the original
// implementation fed hash/fnv — digests are recorded in traces, so the
// sequence is part of the trace format. RAM goes through the zero-run
// fast path (fnvSparse): identical output, ~10× faster on the mostly-
// zero physical memory of a real guest.
func Digest(m *machine.Machine, v *vmm.VMM) uint64 {
	h := newFNVDigest()
	digestRAM(h, m)
	digestState(h, m, v)
	return h.Sum64()
}

// digestRAM feeds physical memory into h, Digest's first part.
func digestRAM(h *fnvDigest, m *machine.Machine) {
	ram := m.Bus.RAM()
	// Walk RAM by the CPU's write-coverage granule: a clear coverage bit
	// proves its 1 MB block was never written and is still zero, so it
	// folds into the hash as a zero run without reading any memory. The
	// result is identical to hashing the full slice.
	cov := m.CPU.WriteCoverage()
	for off := 0; off < len(ram); {
		b := uint(off >> cpu.CovShift)
		end := len(ram)
		if b > 63 {
			b = 63
		} else if e := (int(b) + 1) << cpu.CovShift; e < end {
			end = e
		}
		if cov&(1<<b) == 0 {
			h.WriteZeros(end - off)
		} else {
			h.WriteSparse(ram[off:end])
		}
		off = end
	}
}

// digestState feeds everything but physical memory into h, Digest's
// second part.
func digestState(h *fnvDigest, m *machine.Machine, v *vmm.VMM) {
	var buf [8]byte
	w32 := func(x uint32) {
		binary.LittleEndian.PutUint32(buf[:4], x)
		h.Write(buf[:4])
	}
	w64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	wb := func(b bool) {
		if b {
			w32(1)
		} else {
			w32(0)
		}
	}
	wpic := func(st pic.State) {
		w32(uint32(st.IRR) | uint32(st.ISR)<<16)
		w32(uint32(st.Mask))
	}
	wpit := func(st pit.State) {
		wb(st.Enabled)
		w32(st.Divisor)
		w32(st.Ticks)
		w64(st.LastFire)
		w64(st.NextAt)
	}
	wuart := func(st uart.State) {
		w32(uint32(len(st.RX)))
		h.Write(st.RX)
		w32(st.IER)
	}

	c := m.CPU
	for _, r := range c.Regs {
		w32(r)
	}
	w32(c.PC)
	w32(c.PSR)
	for _, cr := range c.CR {
		w32(cr)
	}
	w64(m.Clock())
	w64(m.IdleCycles())
	w64(m.MonitorCycles())
	w64(c.Stat.Instructions)
	for _, x := range m.GuestCounters {
		w32(x)
	}

	wpic(m.PIC.State())
	wpit(m.PIT.State())
	wuart(m.Dbg.State())
	wuart(m.Cons.State())
	for i := range m.SCSI {
		st := m.SCSI[i].State()
		w32(st.LBA)
		w32(st.Count)
		w32(st.DMAAddr)
		wb(st.Busy)
		wb(st.Done)
		wb(st.Errbit)
		w64(st.XferDoneAt)
		w64(st.ReadsCompleted)
		w64(st.BytesRead)
	}
	nst := m.NIC.State()
	wb(nst.Enabled)
	w32(nst.TxBase)
	w32(nst.TxCount)
	w32(nst.TxTail)
	w32(nst.TxHead)
	w32(nst.ICR)
	w32(nst.Coalesce)
	w64(nst.BusyUntil)
	wb(nst.InFlight)
	w64(nst.CurDoneAt)
	w32(nst.SinceIRQ)
	w64(nst.FramesTx)
	w64(nst.BytesTx)

	if v != nil {
		for cr := 0; cr < 12; cr++ {
			w32(v.VCR(cr))
		}
		w32(v.GuestCPL())
		wb(v.GuestIF())
		wpic(v.VPICState())
		wpit(v.VPITState())
	}
}

// FrameDigest hashes a transmitted frame for the EvFrame timeline:
// FNV-64a, the value hash/fnv's New64a gives, which traces record. It
// is one byte-serial chain; the recorder hashes frames four at a time
// with fnvBytes4, which gives the same values, and the replayer checks
// each frame with FrameDigest.
func FrameDigest(frame []byte) uint64 { return fnvBytes(fnvOffset64, frame) }
