package gdbstub

import (
	"fmt"

	"lvmm/internal/cpu"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
)

// BareTarget adapts a bare-metal machine (no monitor) for a guest-resident
// stub — the "software debugger embedded in the operating system under
// development" baseline from the paper's introduction. It claims only the
// debug-relevant traps (BRK, single-step) via the CPU diverter; everything
// else vectors into the guest architecturally.
type BareTarget struct {
	m      *machine.Machine
	frozen bool
	onStop func(cause uint32)
}

// NewBareTarget installs the bare-metal debug hooks on a machine.
func NewBareTarget(m *machine.Machine) *BareTarget {
	t := &BareTarget{m: m}
	m.CPU.Diverter = func(cause, vaddr, epc uint32) cpu.DivertAction {
		switch cause {
		case isa.CauseBRK, isa.CauseStep, isa.CauseWatch:
			// EPC semantics: BRK faults at the instruction; leave PC there
			// so the debugger sees the breakpoint address.
			t.m.CPU.PC = epc
			t.Freeze()
			if t.onStop != nil {
				t.onStop(cause)
			}
			return cpu.DivertExit
		}
		return cpu.DivertReflect // architectural delivery into the guest
	}
	return t
}

// OnStop registers the stop-event callback (wired to Stub.NotifyStop).
func (t *BareTarget) OnStop(f func(cause uint32)) { t.onStop = f }

// ReadRegs returns the physical register file.
func (t *BareTarget) ReadRegs() [18]uint32 {
	var out [18]uint32
	copy(out[:16], t.m.CPU.Regs[:])
	out[16] = t.m.CPU.PC
	out[17] = t.m.CPU.PSR
	return out
}

// WriteReg updates a register.
func (t *BareTarget) WriteReg(i int, v uint32) bool {
	switch {
	case i >= 0 && i < 16:
		if i != isa.RegZero {
			t.m.CPU.Regs[i] = v
		}
		return true
	case i == 16:
		t.m.CPU.PC = v
		return true
	case i == 17:
		t.m.CPU.PSR = v
		return true
	}
	return false
}

// ReadMem reads through the guest's translation.
func (t *BareTarget) ReadMem(addr uint32, n int) ([]byte, bool) {
	return t.m.CPU.ReadVirt(addr, n)
}

// WriteMem writes with debug semantics.
func (t *BareTarget) WriteMem(addr uint32, data []byte) bool {
	ok := t.m.CPU.WriteVirt(addr, data)
	if ok {
		t.m.CPU.FlushTLB()
	}
	return ok
}

// Step executes one instruction.
func (t *BareTarget) Step() {
	was := t.frozen
	t.frozen = false
	t.m.SetGuestIdle(false)
	t.m.StepOne()
	t.frozen = was
	t.m.SetGuestIdle(t.frozen)
}

// Freeze stops the guest.
func (t *BareTarget) Freeze() {
	t.frozen = true
	t.m.SetGuestIdle(true)
}

// Resume restarts the guest.
func (t *BareTarget) Resume() {
	t.frozen = false
	t.m.SetGuestIdle(false)
}

// Frozen reports run state.
func (t *BareTarget) Frozen() bool { return t.frozen }

// SetHWBreak programs a CPU debug slot.
func (t *BareTarget) SetHWBreak(i int, addr uint32, enabled bool) error {
	return t.m.CPU.SetHWBreak(i, addr, enabled)
}

// SetWatchpoint programs a CPU data-watchpoint slot.
func (t *BareTarget) SetWatchpoint(i int, addr, length uint32, enabled bool) error {
	return t.m.CPU.SetWatchpoint(i, addr, length, enabled)
}

// MemoryMap describes the machine's physical layout for
// qXfer:memory-map:read: one flat RAM region (the HX32 machine has no
// ROM; the kernel image loads into RAM).
func (t *BareTarget) MemoryMap() []MemRegion {
	return []MemRegion{{Type: "ram", Start: 0, Length: t.m.Bus.RAMSize()}}
}

// Info renders target state.
func (t *BareTarget) Info() string {
	c := t.m.CPU
	return fmt.Sprintf("bare metal: pc=%08x cpl=%d frozen=%v clock=%d\n",
		c.PC, c.CPL(), t.frozen, t.m.Clock())
}

// BlockInfo renders the superblock tier's telemetry for `monitor blocks`.
func (t *BareTarget) BlockInfo() string {
	return t.m.CPU.SBStats().String() + "\n"
}
