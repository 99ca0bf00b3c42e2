// Package cpu implements the HX32 processor: an interpreted 32-bit core
// with x86-style privilege rings, two-level paging, port I/O guarded by an
// I/O-permission bitmap, architectural trap delivery, and cycle accounting.
//
// The CPU supports two trap paths. Architecturally, traps vector through
// the guest's vector table (CR VBAR) — this is what a bare-metal kernel
// uses. A virtual machine monitor installs a Diverter, which receives every
// trap and interrupt first; this models the monitor owning the real
// interrupt-descriptor machinery while the guest sees only virtualized
// copies, exactly the structure of the paper's lightweight VMM.
//
// Execution has two bit-identical engines: the per-instruction slow path
// (Step, interpreting raw words) and a predecoded fast path (BurstRun)
// backed by a physical-page-indexed decode cache and a superblock tier,
// whose hot blocks run as native code on amd64 — see decode.go for the
// design and its invalidation rules, eval.go for the fast path's single
// copy of the ALU and branch semantics, and native.go for the native
// tier. Debug
// observers (breakpoints, watchpoints, spy watches) are armed at page
// granularity, so the fast path stays on unless execution actually touches
// an armed page — see observers.go.
package cpu

import (
	"fmt"

	"lvmm/internal/bus"
	"lvmm/internal/isa"
)

// StepResult describes what one instruction step did.
type StepResult struct {
	// Cycles consumed by the step, including trap-entry costs.
	Cycles uint64
	// Halted is true if the CPU is now idle in HLT.
	Halted bool
	// Wedged is true if the CPU took an unrecoverable double fault
	// (triple-fault equivalent); the machine must stop.
	Wedged bool
	// Trapped is the trap cause raised during this step (CauseNone if none).
	Trapped uint32
}

// DivertAction is a Diverter's disposition of a trap.
type DivertAction uint8

const (
	// DivertReflect: the diverter did not claim the trap; it is delivered
	// architecturally through the guest's vector table.
	DivertReflect DivertAction = iota
	// DivertResume: the trap was consumed and fully emulated in place
	// (CPU state already adjusted); the guest may continue on the
	// predecoded fast path without surfacing to the run loop.
	DivertResume
	// DivertExit: the trap was consumed, but execution must surface to
	// the machine loop (debug stops, faults reflected into the guest,
	// idle transitions).
	DivertExit
)

// Diverter intercepts traps before architectural delivery. Anything other
// than DivertReflect means the trap was consumed by the diverter; a
// DivertReflect falls through to the guest's vector table.
type Diverter func(cause, vaddr, epc uint32) DivertAction

// IOBitmapSize is the number of uint64 words covering the 64K port space.
const IOBitmapSize = 65536 / 64

// IOBitmap grants port access to CPL>0 code, one bit per port
// (x86 TSS I/O-permission-bitmap semantics: bit set = access allowed).
type IOBitmap [IOBitmapSize]uint64

// Allow grants access to count ports starting at base.
func (m *IOBitmap) Allow(base uint16, count int) {
	for i := 0; i < count; i++ {
		p := uint32(base) + uint32(i)
		m[p/64] |= 1 << (p % 64)
	}
}

// Allowed reports whether the bitmap grants access to port.
func (m *IOBitmap) Allowed(port uint16) bool {
	return m[uint32(port)/64]&(1<<(uint32(port)%64)) != 0
}

// CPU is one HX32 core.
type CPU struct {
	Regs [isa.NumRegs]uint32
	PC   uint32
	PSR  uint32
	CR   [isa.NumCRs]uint32

	// ClockFn supplies the current machine cycle count for CYCLO/CYCHI.
	ClockFn func() uint64

	// Diverter, when set, receives all traps first (VMM hook).
	Diverter Diverter

	bus    *bus.Bus
	ram    []byte // bus.RAM(), for the predecoded tiers' load/store arms
	halted bool
	wedged bool

	// TLB.
	tlb    [tlbEntries]TLBEntry
	tlbGen uint32

	// I/O permission bitmap (nil = no grants; CPL0 always allowed).
	ioBitmap *IOBitmap

	// Predecoded execution engine (see decode.go): lazily decoded
	// physical-page-indexed instruction arrays, invalidated by writes and
	// by the restore walk's DropWord.
	dcPages []*decPage
	// dcBulkGen is bumped whenever whole page objects are dropped from
	// dcPages; BurstRun's register-cached fetch page checks it instead of
	// re-loading the dcPages slot every instruction. Derived, never
	// serialized.
	dcBulkGen uint32

	// dirtyPages, when non-nil, accumulates one bit per physical page
	// written since the last ResetDirtyPages (delta-snapshot support;
	// see dirty.go). Maintained by the invalidation paths
	// (dcInvalidate, storeInvalidate), which observe every RAM write.
	dirtyPages []uint64

	// writeCov is the write-coverage bitmap: bit b set means some write
	// since construction (or since a Restore recomputed it) touched the
	// 1 MB block starting at b<<CovShift (bit 63 covers everything from
	// 63 MB up). A clear bit proves its block has never been written and
	// is therefore still zero — RAM starts zeroed and every writer
	// funnels through dcInvalidate or storeInvalidate, which maintain the
	// map. Sparse
	// consumers (keyframe snapshots, the replay digest) skip clear
	// blocks instead of scanning all of installed memory (see dirty.go).
	writeCov uint64

	// divertResumed records whether the most recent raised trap was
	// consumed by the Diverter with DivertResume (fully emulated in
	// place, fast path may continue).
	divertResumed bool

	// Superblock tier (see superblock.go): per-physical-page basic-block
	// caches above the decode cache, plus the dispatcher's pending
	// chain-link request (a hot taken exit asking the next block lookup at
	// sbLinkVA to install the edge). All derived, never serialized.
	sbPages  []*sbPage
	sbLink   *sbEdge
	sbLinkVA uint32
	sbStat   SBStats

	// Native block tier (see native.go): the compiled code's per-call
	// inputs and its code memory. Derived, never serialized.
	nat nativeState

	// Hardware breakpoints (debug registers).
	hwBreak    [4]uint32
	hwBreakEn  [4]bool
	hwBreakAny bool

	// Data watchpoints: fire CauseWatch after a store into the range.
	watchAddr [4]uint32
	watchLen  [4]uint32
	watchEn   [4]bool
	watchAny  bool

	// Spy watchpoints: observe stores without trapping or charging cycles
	// (replay-engine scans; see state.go).
	spyAddr [4]uint32
	spyLen  [4]uint32
	spyEn   [4]bool
	spyAny  bool

	// Derived observer-arming state, rebuilt by recalcObservers (see
	// observers.go): the virtual pages holding enabled breakpoints, and
	// the page-rounded virtual-address envelope covering every enabled
	// watch/spy range ([writeArmLo, writeArmHi), empty when hi is zero).
	execPages  [4]uint32
	execPageN  int
	writeArmLo uint64
	writeArmHi uint64

	// forceSlow pins execution to the per-instruction interpreter
	// (ForceSlowEngine). Wiring, not snapshot state.
	forceSlow bool

	// burstTicks counts instruction ticks retired by BurstRun. Derived
	// diagnostics (never serialized); see BurstTicks.
	burstTicks uint64

	// SpyHook receives the watched address for every store that lands in
	// an enabled spy range.
	SpyHook func(watchAddr uint32)

	// Statistics.
	Stat Stats

	// dirtyGen counts the dirty bitmap's resets (see DirtyGen). It sits
	// last so the hot fields above keep their offsets.
	dirtyGen uint64
}

// Stats counts notable CPU events.
type Stats struct {
	Instructions uint64
	TLBMisses    uint64
	Traps        uint64
	IRQsTaken    uint64
	PortReads    uint64
	PortWrites   uint64
	BytesCopied  uint64 // by MOVS/STOS
}

// New creates a CPU attached to a bus, in the reset state: PC=resetPC,
// CPL0, interrupts and paging disabled.
func New(b *bus.Bus, resetPC uint32) *CPU {
	c := &CPU{bus: b, ram: b.RAM()}
	c.dcPages = make([]*decPage, (b.RAMSize()+isa.PageMask)>>isa.PageShift)
	c.sbPages = make([]*sbPage, len(c.dcPages))
	// Every write into RAM must drop predecoded instructions covering it.
	// The bus hook catches the writes made through the bus (device DMA,
	// image loads, Step's stores); the predecoded tiers' stores and
	// page-walk A/D updates write RAM directly and call storeInvalidate.
	b.SetWriteNotify(c.dcInvalidate)
	c.Reset(resetPC)
	return c
}

// Reset returns the CPU to its power-on state.
func (c *CPU) Reset(resetPC uint32) {
	c.Regs = [isa.NumRegs]uint32{}
	c.PC = resetPC
	c.PSR = 0 // CPL0, IF=0, TF=0
	c.CR = [isa.NumCRs]uint32{}
	c.halted = false
	c.wedged = false
	c.recalcObservers()
	c.FlushTLB()
}

// Bus returns the attached bus.
func (c *CPU) Bus() *bus.Bus { return c.bus }

// Halted reports whether the CPU is idling in HLT.
func (c *CPU) Halted() bool { return c.halted }

// Wedged reports whether the CPU took an unrecoverable fault cascade.
func (c *CPU) Wedged() bool { return c.wedged }

// CPL returns the current privilege level.
func (c *CPU) CPL() uint32 { return isa.CPL(c.PSR) }

// SetIOBitmap installs the I/O permission bitmap consulted for CPL>0 port
// access (nil removes all grants). On real x86 this lives in the TSS; the
// monitor owns it either way.
func (c *CPU) SetIOBitmap(m *IOBitmap) { c.ioBitmap = m }

// IOBitmap returns the installed bitmap (may be nil).
func (c *CPU) IOBitmap() *IOBitmap { return c.ioBitmap }

// SetHWBreak configures hardware breakpoint slot i (0..3).
func (c *CPU) SetHWBreak(i int, addr uint32, enabled bool) error {
	if i < 0 || i >= len(c.hwBreak) {
		return fmt.Errorf("cpu: hardware breakpoint slot %d out of range", i)
	}
	c.hwBreak[i] = addr
	c.hwBreakEn[i] = enabled
	c.recalcObservers()
	return nil
}

// HWBreaks returns the current hardware breakpoint configuration.
func (c *CPU) HWBreaks() (addrs [4]uint32, enabled [4]bool) {
	return c.hwBreak, c.hwBreakEn
}

// SetWatchpoint configures data-watchpoint slot i (0..3) over
// [addr, addr+length). A store intersecting an enabled range raises
// CauseWatch after the store commits (x86 debug-register semantics).
func (c *CPU) SetWatchpoint(i int, addr, length uint32, enabled bool) error {
	if i < 0 || i >= len(c.watchAddr) {
		return fmt.Errorf("cpu: watchpoint slot %d out of range", i)
	}
	c.watchAddr[i] = addr
	c.watchLen[i] = length
	c.watchEn[i] = enabled
	c.recalcObservers()
	return nil
}

// watchHit reports whether a store to [va, va+n) intersects an enabled
// watchpoint, returning the watched address.
func (c *CPU) watchHit(va, n uint32) (uint32, bool) {
	for i, en := range c.watchEn {
		if !en {
			continue
		}
		w0, w1 := c.watchAddr[i], c.watchAddr[i]+c.watchLen[i]
		if va < w1 && va+n > w0 {
			return c.watchAddr[i], true
		}
	}
	return 0, false
}

func (c *CPU) setReg(r int, v uint32) {
	if r != isa.RegZero {
		c.Regs[r] = v
	}
}

func (c *CPU) now() uint64 {
	if c.ClockFn != nil {
		return c.ClockFn()
	}
	return 0
}

// DeliverIRQ delivers external interrupt line irq (0..15) to the CPU,
// waking it from HLT. The caller (machine or monitor) has already decided
// deliverability; architectural or diverted handling applies as usual.
func (c *CPU) DeliverIRQ(irq int) StepResult {
	c.halted = false
	c.Stat.IRQsTaken++
	cyc := c.raise(isa.CauseIRQBase+uint32(irq), 0, c.PC)
	return StepResult{Cycles: cyc, Wedged: c.wedged, Trapped: isa.CauseIRQBase + uint32(irq)}
}

// Step executes one instruction and returns what happened. Calling Step on
// a halted or wedged CPU is a no-op returning zero cycles; the machine
// advances time to the next event instead.
func (c *CPU) Step() StepResult {
	if c.halted || c.wedged {
		return StepResult{Halted: c.halted, Wedged: c.wedged}
	}

	instPC := c.PC

	// Hardware breakpoints fire before execution.
	if c.hwBreakAny {
		for i, en := range c.hwBreakEn {
			if en && c.hwBreak[i] == instPC {
				// Disarm for one shot so the handler can resume past it;
				// debuggers re-arm after stepping.
				c.hwBreakEn[i] = false
				c.recalcObservers()
				cyc := c.raise(isa.CauseBRK, instPC, instPC)
				return StepResult{Cycles: cyc, Wedged: c.wedged, Trapped: isa.CauseBRK}
			}
		}
	}

	tfPending := c.PSR&isa.PSRTF != 0

	if instPC&3 != 0 {
		cyc := c.raise(isa.CauseAlign, instPC, instPC)
		return StepResult{Cycles: cyc, Wedged: c.wedged, Trapped: isa.CauseAlign}
	}
	w, cause, cyc := c.fetch(instPC)
	if cause != isa.CauseNone {
		cyc += c.raise(cause, instPC, instPC)
		return StepResult{Cycles: cyc, Wedged: c.wedged, Trapped: cause}
	}

	res := c.execute(instPC, w)
	res.Cycles += cyc
	c.Stat.Instructions++

	if tfPending && res.Trapped == isa.CauseNone {
		res.Cycles += c.raise(isa.CauseStep, 0, c.PC)
		res.Trapped = isa.CauseStep
		res.Halted = false
	}
	res.Halted = c.halted
	res.Wedged = c.wedged
	return res
}

// trapStep charges an instruction's base cycles (plus any translation
// extra folded in by the caller) and delivers a trap; both engines use it.
// A named method instead of a per-execute closure keeps the interpreter's
// hot entry free of closure setup.
func (c *CPU) trapStep(cause, vaddr, epc uint32, cycles uint64) StepResult {
	return StepResult{Cycles: cycles + c.raise(cause, vaddr, epc), Trapped: cause}
}

// execute runs one decoded instruction. On entry PC is still instPC; the
// instruction advances it.
func (c *CPU) execute(instPC, w uint32) StepResult {
	op := isa.Opcode(w)
	cycles := isa.OpCycles(op)
	next := instPC + 4

	switch op {
	case isa.OpADD:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]+c.Regs[isa.Rs2(w)])
	case isa.OpSUB:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]-c.Regs[isa.Rs2(w)])
	case isa.OpAND:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]&c.Regs[isa.Rs2(w)])
	case isa.OpOR:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]|c.Regs[isa.Rs2(w)])
	case isa.OpXOR:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]^c.Regs[isa.Rs2(w)])
	case isa.OpSHL:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]<<(c.Regs[isa.Rs2(w)]&31))
	case isa.OpSHR:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]>>(c.Regs[isa.Rs2(w)]&31))
	case isa.OpSRA:
		c.setReg(isa.Rd(w), uint32(int32(c.Regs[isa.Rs1(w)])>>(c.Regs[isa.Rs2(w)]&31)))
	case isa.OpMUL:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]*c.Regs[isa.Rs2(w)])
	case isa.OpDIVU:
		d := c.Regs[isa.Rs2(w)]
		if d == 0 {
			c.setReg(isa.Rd(w), 0xFFFFFFFF) // RISC-V-style div-by-zero result
		} else {
			c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]/d)
		}
	case isa.OpREMU:
		d := c.Regs[isa.Rs2(w)]
		if d == 0 {
			c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)])
		} else {
			c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]%d)
		}
	case isa.OpSLT:
		v := uint32(0)
		if int32(c.Regs[isa.Rs1(w)]) < int32(c.Regs[isa.Rs2(w)]) {
			v = 1
		}
		c.setReg(isa.Rd(w), v)
	case isa.OpSLTU:
		v := uint32(0)
		if c.Regs[isa.Rs1(w)] < c.Regs[isa.Rs2(w)] {
			v = 1
		}
		c.setReg(isa.Rd(w), v)

	case isa.OpADDI:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]+uint32(isa.Imm18(w)))
	case isa.OpANDI:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]&isa.Imm18U(w))
	case isa.OpORI:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]|isa.Imm18U(w))
	case isa.OpXORI:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]^isa.Imm18U(w))
	case isa.OpSHLI:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]<<(isa.Imm18U(w)&31))
	case isa.OpSHRI:
		c.setReg(isa.Rd(w), c.Regs[isa.Rs1(w)]>>(isa.Imm18U(w)&31))
	case isa.OpSRAI:
		c.setReg(isa.Rd(w), uint32(int32(c.Regs[isa.Rs1(w)])>>(isa.Imm18U(w)&31)))
	case isa.OpLUI:
		c.setReg(isa.Rd(w), isa.Imm18U(w)<<14)

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		va := c.Regs[isa.Rs1(w)] + uint32(isa.Imm18(w))
		size := loadSize(op)
		if va&(size-1) != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, cycles)
		}
		pa, cause, extra := c.translate(va, false)
		cycles += extra
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, cycles)
		}
		var v uint32
		var ok bool
		switch op {
		case isa.OpLW:
			v, ok = c.bus.Read32(pa)
		case isa.OpLH:
			var h uint16
			h, ok = c.bus.Read16(pa)
			v = uint32(int32(int16(h)))
		case isa.OpLHU:
			var h uint16
			h, ok = c.bus.Read16(pa)
			v = uint32(h)
		case isa.OpLB:
			var b byte
			b, ok = c.bus.Read8(pa)
			v = uint32(int32(int8(b)))
		case isa.OpLBU:
			var b byte
			b, ok = c.bus.Read8(pa)
			v = uint32(b)
		}
		if !ok {
			return c.trapStep(isa.CauseBusError, va, instPC, cycles)
		}
		c.setReg(isa.Rd(w), v)

	case isa.OpSW, isa.OpSH, isa.OpSB:
		va := c.Regs[isa.Rs1(w)] + uint32(isa.Imm18(w))
		size := storeSize(op)
		if va&(size-1) != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, cycles)
		}
		pa, cause, extra := c.translate(va, true)
		cycles += extra
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, cycles)
		}
		v := c.Regs[isa.Rd(w)] // store data register occupies the a field
		var ok bool
		switch op {
		case isa.OpSW:
			ok = c.bus.Write32(pa, v)
		case isa.OpSH:
			ok = c.bus.Write16(pa, uint16(v))
		case isa.OpSB:
			ok = c.bus.Write8(pa, byte(v))
		}
		if !ok {
			return c.trapStep(isa.CauseBusError, va, instPC, cycles)
		}
		if c.spyAny {
			c.notifySpy(va, size)
		}
		if c.watchAny {
			if wa, hit := c.watchHit(va, size); hit {
				// The store has committed; trap with resume-after
				// semantics so the debugger sees the new value.
				c.PC = next
				return StepResult{
					Cycles:  cycles + c.raise(isa.CauseWatch, wa, next),
					Trapped: isa.CauseWatch,
				}
			}
		}

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		a := c.Regs[isa.Rd(w)] // rs1 occupies the a field in branches
		b := c.Regs[isa.Rs1(w)]
		taken := false
		switch op {
		case isa.OpBEQ:
			taken = a == b
		case isa.OpBNE:
			taken = a != b
		case isa.OpBLT:
			taken = int32(a) < int32(b)
		case isa.OpBGE:
			taken = int32(a) >= int32(b)
		case isa.OpBLTU:
			taken = a < b
		case isa.OpBGEU:
			taken = a >= b
		}
		if taken {
			cycles += isa.CycTaken - isa.CycBranch
			next = instPC + 4 + uint32(isa.Imm18(w))*4
		}

	case isa.OpJAL:
		c.setReg(isa.Rd(w), instPC+4)
		next = instPC + 4 + uint32(isa.Imm22(w))*4

	case isa.OpJALR:
		target := c.Regs[isa.Rs1(w)] + uint32(isa.Imm18(w))
		c.setReg(isa.Rd(w), instPC+4)
		next = target

	case isa.OpSYSCALL:
		return StepResult{
			Cycles:  cycles + c.raise(isa.CauseSyscall, 0, instPC+4),
			Trapped: isa.CauseSyscall,
		}

	case isa.OpBRK:
		return c.trapStep(isa.CauseBRK, 0, instPC, cycles)

	case isa.OpIRET:
		if c.CPL() != isa.CPLMonitor {
			return c.trapStep(isa.CausePriv, w, instPC, cycles)
		}
		newPSR := c.CR[isa.CREstatus]
		newPC := c.CR[isa.CREpc]
		if isa.CPL(newPSR) != isa.CPLMonitor {
			c.Regs[isa.RegSP] = c.CR[isa.CRUsp]
		}
		c.PSR = newPSR
		c.PC = newPC
		return StepResult{Cycles: cycles}

	case isa.OpHLT:
		if c.CPL() != isa.CPLMonitor {
			return c.trapStep(isa.CausePriv, w, instPC, cycles)
		}
		c.halted = true
		c.PC = next
		return StepResult{Cycles: cycles, Halted: true}

	case isa.OpCLI:
		if c.CPL() != isa.CPLMonitor {
			return c.trapStep(isa.CausePriv, w, instPC, cycles)
		}
		c.PSR &^= isa.PSRIF
	case isa.OpSTI:
		if c.CPL() != isa.CPLMonitor {
			return c.trapStep(isa.CausePriv, w, instPC, cycles)
		}
		c.PSR |= isa.PSRIF

	case isa.OpMOVCR:
		if c.CPL() != isa.CPLMonitor {
			return c.trapStep(isa.CausePriv, w, instPC, cycles)
		}
		cr := int(isa.Imm18U(w))
		if cr >= isa.NumCRs {
			return c.trapStep(isa.CauseUD, w, instPC, cycles)
		}
		var v uint32
		switch cr {
		case isa.CRCycleLo:
			v = uint32(c.now())
		case isa.CRCycleHi:
			v = uint32(c.now() >> 32)
		default:
			v = c.CR[cr]
		}
		c.setReg(isa.Rd(w), v)

	case isa.OpMOVRC:
		if c.CPL() != isa.CPLMonitor {
			return c.trapStep(isa.CausePriv, w, instPC, cycles)
		}
		cr := int(isa.Imm18U(w))
		if cr >= isa.NumCRs {
			return c.trapStep(isa.CauseUD, w, instPC, cycles)
		}
		v := c.Regs[isa.Rs1(w)]
		switch cr {
		case isa.CRCycleLo, isa.CRCycleHi:
			// Read-only; writes dropped.
		case isa.CRPtbr:
			c.CR[cr] = v
			c.FlushTLB()
		default:
			c.CR[cr] = v
		}

	case isa.OpTLBINV:
		if c.CPL() != isa.CPLMonitor {
			return c.trapStep(isa.CausePriv, w, instPC, cycles)
		}
		c.FlushTLB()

	case isa.OpIN:
		port := uint16(c.Regs[isa.Rs1(w)])
		if !c.ioAllowed(port) {
			return c.trapStep(isa.CauseIOPerm, uint32(port), instPC, cycles)
		}
		c.Stat.PortReads++
		c.setReg(isa.Rd(w), c.bus.ReadPort(port))

	case isa.OpOUT:
		port := uint16(c.Regs[isa.Rs1(w)])
		if !c.ioAllowed(port) {
			return c.trapStep(isa.CauseIOPerm, uint32(port), instPC, cycles)
		}
		c.Stat.PortWrites++
		c.bus.WritePort(port, c.Regs[isa.Rs2(w)])

	case isa.OpMOVS:
		return c.execMOVS(instPC)
	case isa.OpSTOS:
		return c.execSTOS(instPC)

	default:
		return c.trapStep(isa.CauseUD, w, instPC, cycles)
	}

	c.PC = next
	return StepResult{Cycles: cycles}
}

func loadSize(op uint32) uint32 {
	switch op {
	case isa.OpLW:
		return 4
	case isa.OpLH, isa.OpLHU:
		return 2
	default:
		return 1
	}
}

func storeSize(op uint32) uint32 {
	switch op {
	case isa.OpSW:
		return 4
	case isa.OpSH:
		return 2
	default:
		return 1
	}
}

func (c *CPU) ioAllowed(port uint16) bool {
	if c.CPL() == isa.CPLMonitor {
		return true
	}
	return c.ioBitmap != nil && c.ioBitmap.Allowed(port)
}

// execMOVS implements the bulk copy: r1=dst, r2=src, r3=len. Registers
// advance with progress so a page fault mid-copy restarts cleanly
// (x86 REP MOVSB semantics).
func (c *CPU) execMOVS(instPC uint32) StepResult {
	var copied uint32
	cycles := uint64(0)
	for c.Regs[3] > 0 {
		src, dst, n := c.Regs[2], c.Regs[1], c.Regs[3]
		chunk := n
		if r := isa.PageSize - src&isa.PageMask; r < chunk {
			chunk = r
		}
		if r := isa.PageSize - dst&isa.PageMask; r < chunk {
			chunk = r
		}
		spa, cause, extra := c.translate(src, false)
		cycles += extra
		if cause == isa.CauseNone {
			var dpa uint32
			dpa, cause, extra = c.translate(dst, true)
			cycles += extra
			if cause == isa.CauseNone {
				if !c.bus.InRAM(spa, chunk) || !c.bus.InRAM(dpa, chunk) {
					cause = isa.CauseBusError
				} else {
					copy(c.bus.RAM()[dpa:dpa+chunk], c.bus.RAM()[spa:spa+chunk])
					c.dcInvalidate(dpa, chunk)
				}
			} else {
				src = dst // fault address is the destination
			}
		}
		if cause != isa.CauseNone {
			cycles += isa.MOVSCycles(copied)
			c.Stat.BytesCopied += uint64(copied)
			return StepResult{
				Cycles:  cycles + c.raise(cause, src, instPC),
				Trapped: cause,
			}
		}
		if c.spyAny {
			c.notifySpy(dst, chunk)
		}
		watchVA, watchHit := uint32(0), false
		if c.watchAny {
			watchVA, watchHit = c.watchHit(dst, chunk)
		}
		c.Regs[1] += chunk
		c.Regs[2] += chunk
		c.Regs[3] -= chunk
		copied += chunk
		if watchHit {
			// Progress registers advanced: re-execution resumes the copy
			// after the watched chunk.
			cycles += isa.MOVSCycles(copied)
			c.Stat.BytesCopied += uint64(copied)
			return StepResult{
				Cycles:  cycles + c.raise(isa.CauseWatch, watchVA, instPC),
				Trapped: isa.CauseWatch,
			}
		}
	}
	c.Stat.BytesCopied += uint64(copied)
	c.PC = instPC + 4
	return StepResult{Cycles: cycles + isa.MOVSCycles(copied)}
}

// execSTOS implements bulk fill: r1=dst, r2=fill byte, r3=len.
func (c *CPU) execSTOS(instPC uint32) StepResult {
	var filled uint32
	cycles := uint64(0)
	fill := byte(c.Regs[2])
	for c.Regs[3] > 0 {
		dst, n := c.Regs[1], c.Regs[3]
		chunk := n
		if r := isa.PageSize - dst&isa.PageMask; r < chunk {
			chunk = r
		}
		dpa, cause, extra := c.translate(dst, true)
		cycles += extra
		if cause == isa.CauseNone && !c.bus.InRAM(dpa, chunk) {
			cause = isa.CauseBusError
		}
		if cause != isa.CauseNone {
			cycles += isa.STOSCycles(filled)
			c.Stat.BytesCopied += uint64(filled)
			return StepResult{
				Cycles:  cycles + c.raise(cause, dst, instPC),
				Trapped: cause,
			}
		}
		ram := c.bus.RAM()[dpa : dpa+chunk]
		for i := range ram {
			ram[i] = fill
		}
		c.dcInvalidate(dpa, chunk)
		if c.spyAny {
			c.notifySpy(dst, chunk)
		}
		c.Regs[1] += chunk
		c.Regs[3] -= chunk
		filled += chunk
	}
	c.Stat.BytesCopied += uint64(filled)
	c.PC = instPC + 4
	return StepResult{Cycles: cycles + isa.STOSCycles(filled)}
}

// fetch reads the instruction word at pc.
func (c *CPU) fetch(pc uint32) (w uint32, cause uint32, cycles uint64) {
	pa, cause, cycles := c.translate(pc, false)
	if cause != isa.CauseNone {
		return 0, cause, cycles
	}
	w, ok := c.bus.Read32(pa)
	if !ok {
		return 0, isa.CauseBusError, cycles
	}
	return w, isa.CauseNone, cycles
}
