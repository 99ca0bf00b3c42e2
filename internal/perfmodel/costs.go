// Package perfmodel holds the calibrated cost model for monitor overheads:
// the cycles a world switch, an emulated register access, a virtual
// interrupt injection, or a hosted-I/O round trip costs on the 1.26 GHz
// Pentium III class target.
//
// Everything architectural (guest instructions, port I/O, DMA, wire and
// media rates, trap entry) is costed by the simulator itself; this package
// only prices the *monitor* work that the simulator executes natively.
// The structure — which operations trap and how often — emerges from
// running the real guest; only the per-event prices live here.
//
// Calibration targets (the paper's headline shape, §3/Fig 3.1):
//   - hosted full-emulation VMM saturates around 30-35 Mb/s,
//   - the lightweight VMM sustains ≈5.4× the hosted VMM,
//   - the lightweight VMM reaches ≈26% of real hardware (disk-limited at
//     ≈660 Mb/s).
//
// The absolute values are consistent with published measurements of the
// era: a ring crossing plus TLB/cache repopulation on a P3 costs on the
// order of 5-10 µs for a pagetable-switching monitor, and a hosted VMM's
// guest→VMM→host-OS round trip several times that (Sugerman et al.,
// USENIX ATC'01 — the paper's reference [2]).
package perfmodel

import "errors"

// Costs prices monitor events in CPU cycles.
type Costs struct {
	// WorldSwitchIn is guest→monitor: trap interception, register file
	// save, switch to the monitor address space.
	WorldSwitchIn uint64
	// WorldSwitchOut is monitor→guest: restore, page-table switch back,
	// and the TLB/cache repopulation the guest pays immediately after
	// (the dominant term on a processor without tagged TLBs).
	WorldSwitchOut uint64
	// Emulate is the monitor-side work to emulate one trapped instruction
	// or virtual-device register access (decode, dispatch, device model).
	Emulate uint64
	// Inject is the extra work to synthesize a virtual trap frame and
	// redirect the guest into its handler (on top of the architectural
	// trap-entry cost the guest pays).
	Inject uint64
	// IRQAck is the monitor's physical interrupt acknowledgement path
	// (PIC access, routing decision).
	IRQAck uint64
	// PTValidate is the price of validating one guest page-table update
	// under direct paging.
	PTValidate uint64
	// HostedIOSyscall is the hosted VMM's round trip into the host OS to
	// perform device I/O on the guest's behalf (VMware-style world switch
	// to the VMApp plus a host system call). Zero for the lightweight VMM.
	HostedIOSyscall uint64
	// CopyPerByteNum/Den is the bounce-buffer copy cost per byte for
	// emulated DMA (hosted VMM only).
	CopyPerByteNum uint64
	CopyPerByteDen uint64
}

// Lightweight returns the cost model of the paper's monitor: a thin
// ring-0 layer that switches page tables on every crossing but never
// leaves kernel context and never copies payload data.
func Lightweight() Costs {
	return Costs{
		WorldSwitchIn:  3_650,
		WorldSwitchOut: 5_300, // includes post-switch TLB/cache refill
		Emulate:        1_100,
		Inject:         1_500,
		IRQAck:         700,
		PTValidate:     900,
		// No hosted I/O, no bounce copies: the data path is direct.
		HostedIOSyscall: 0,
		CopyPerByteNum:  0,
		CopyPerByteDen:  1,
	}
}

// Hosted returns the cost model of the conventional baseline (VMware
// Workstation 4 style): every device touch leaves the VMM for the host
// OS, and all DMA moves through bounce buffers.
func Hosted() Costs {
	return Costs{
		WorldSwitchIn:   15_000,
		WorldSwitchOut:  17_000,
		Emulate:         2_000,
		Inject:          3_000,
		IRQAck:          1_500,
		PTValidate:      900,
		HostedIOSyscall: 14_000,
		CopyPerByteNum:  2,
		CopyPerByteDen:  1,
	}
}

// Validate reports a model the monitor cannot price with: the copy
// cost's denominator must be positive.
func (c Costs) Validate() error {
	if c.CopyPerByteDen == 0 {
		return errors.New("perfmodel: CopyPerByteDen must be positive")
	}
	return nil
}

// CopyCost returns the bounce-buffer cost of moving n bytes.
func (c Costs) CopyCost(n uint32) uint64 {
	return uint64(n) * c.CopyPerByteNum / c.CopyPerByteDen
}

// RoundTrip is the cost of one complete guest→monitor→guest crossing with
// e emulation steps, the unit the trap statistics report.
func (c Costs) RoundTrip(e int) uint64 {
	return c.WorldSwitchIn + c.WorldSwitchOut + uint64(e)*c.Emulate
}
