package vmm

import (
	"fmt"

	"lvmm/internal/gdbstub"
	"lvmm/internal/isa"
)

// DebugTarget adapts the monitor to the debug stub's Target interface
// (structurally; see internal/gdbstub). Because every operation goes
// through the monitor — which owns the real hardware — the debugger keeps
// full access to the guest no matter how broken the guest OS is.
//
// Arming breakpoints or watchpoints here does not drop the guest onto the
// per-instruction engine: the CPU arms observers page-granularly (cpu's
// observers.go), so a debugged guest keeps its burst-speed I/O behaviour
// except on the pages actually being observed — the paper's
// performance-transparency property.
type DebugTarget struct {
	v *VMM
}

// DebugTarget returns the stub-facing view of the guest.
func (v *VMM) DebugTarget() *DebugTarget { return &DebugTarget{v: v} }

// ReadRegs returns the guest register file, PC, and the guest-view PSR.
func (d *DebugTarget) ReadRegs() [18]uint32 {
	var out [18]uint32
	c := d.v.m.CPU
	copy(out[:16], c.Regs[:])
	out[16] = c.PC
	out[17] = d.v.guestPSR()
	return out
}

// WriteReg updates a guest register (17 = PSR updates the virtual state).
func (d *DebugTarget) WriteReg(i int, v uint32) bool {
	c := d.v.m.CPU
	switch {
	case i >= 0 && i < 16:
		if i != isa.RegZero {
			c.Regs[i] = v
		}
		return true
	case i == 16:
		c.PC = v
		return true
	case i == 17:
		d.v.setGuestPSR(v)
		return true
	}
	return false
}

// ReadMem reads guest memory through the guest's current translation.
func (d *DebugTarget) ReadMem(addr uint32, n int) ([]byte, bool) {
	return d.v.m.CPU.ReadVirt(addr, n)
}

// WriteMem writes guest memory with debug semantics (can patch read-only
// text for software breakpoints).
func (d *DebugTarget) WriteMem(addr uint32, data []byte) bool {
	ok := d.v.m.CPU.WriteVirt(addr, data)
	if ok {
		d.v.m.CPU.FlushTLB()
	}
	return ok
}

// Step executes one guest instruction under the monitor.
func (d *DebugTarget) Step() {
	was := d.v.frozen
	d.v.frozen = false
	d.v.updateIdle()
	d.v.m.StepOne()
	d.v.frozen = was || d.v.frozen // a trap during the step may re-freeze
	d.v.SetFrozen(true)
}

// Freeze stops the guest (virtual time continues; the monitor stays
// responsive — the paper's stability property).
func (d *DebugTarget) Freeze() { d.v.SetFrozen(true) }

// Resume restarts the guest; virtual interrupts that became pending while
// frozen fire immediately.
func (d *DebugTarget) Resume() {
	d.v.SetFrozen(false)
	d.v.tryInject()
}

// Frozen reports run state.
func (d *DebugTarget) Frozen() bool { return d.v.Frozen() }

// SetHWBreak programs a CPU hardware breakpoint slot (page-armed: only
// instructions on the breakpoint's page pay for the check).
func (d *DebugTarget) SetHWBreak(i int, addr uint32, enabled bool) error {
	return d.v.m.CPU.SetHWBreak(i, addr, enabled)
}

// SetWatchpoint programs a CPU data-watchpoint slot.
func (d *DebugTarget) SetWatchpoint(i int, addr, length uint32, enabled bool) error {
	return d.v.m.CPU.SetWatchpoint(i, addr, length, enabled)
}

// MemoryMap describes the guest-visible physical layout for the stub's
// qXfer:memory-map:read service: one flat RAM region. Both monitor
// modes pass physical memory through 1:1 (the lightweight VMM by
// design, the hosted baseline by construction), so the guest's view is
// the machine's installed RAM.
func (d *DebugTarget) MemoryMap() []gdbstub.MemRegion {
	return []gdbstub.MemRegion{{Type: "ram", Start: 0, Length: d.v.m.Bus.RAMSize()}}
}

// Info renders monitor state for the debugger's `monitor info` command,
// including the trap histogram by cause — the monitor's view of what the
// guest has been doing.
func (d *DebugTarget) Info() string {
	out := fmt.Sprintf("%s\nguest pc=%08x cpl=%d if=%v\n",
		d.v.String(), d.v.m.CPU.PC, d.v.vCPL, d.v.vIF)
	d.v.Stats.TrapsByCause.NonZero(func(c uint32, n uint64) {
		out += fmt.Sprintf("  %-18s %d\n", isa.CauseName(c), n)
	})
	return out
}

// BlockInfo renders the superblock tier's telemetry for `monitor blocks`:
// how much of the deprivileged guest actually ran predecoded.
func (d *DebugTarget) BlockInfo() string {
	return d.v.m.CPU.SBStats().String() + "\n"
}
