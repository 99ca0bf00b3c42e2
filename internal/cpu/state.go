package cpu

import (
	"fmt"

	"lvmm/internal/isa"
)

// State is the complete serializable processor state for record/replay
// snapshots. It includes the TLB (its fill state changes TLB-miss cycle
// charges, so a cold TLB would break bit-identical replay), the debug
// facilities (breakpoint/watchpoint slots), and the statistics counters
// (the instruction count is the replay timeline's position coordinate).
type State struct {
	Regs [16]uint32
	PC   uint32
	PSR  uint32
	CR   [12]uint32

	Halted bool
	Wedged bool

	TLB    [tlbEntries]TLBEntry
	TLBGen uint32

	// IOBitmap is a copy of the installed bitmap contents; HasIOBitmap
	// distinguishes "no bitmap" from an all-zero one.
	HasIOBitmap bool
	IOBitmap    IOBitmap

	HWBreak   [4]uint32
	HWBreakEn [4]bool
	WatchAddr [4]uint32
	WatchLen  [4]uint32
	WatchEn   [4]bool

	Stat Stats
}

// Snapshot captures the processor state.
func (c *CPU) Snapshot() State {
	s := State{
		Regs: c.Regs, PC: c.PC, PSR: c.PSR, CR: c.CR,
		Halted: c.halted, Wedged: c.wedged,
		TLB: c.tlb, TLBGen: c.tlbGen,
		HWBreak: c.hwBreak, HWBreakEn: c.hwBreakEn,
		WatchAddr: c.watchAddr, WatchLen: c.watchLen, WatchEn: c.watchEn,
		Stat: c.Stat,
	}
	if c.ioBitmap != nil {
		s.HasIOBitmap = true
		s.IOBitmap = *c.ioBitmap
	}
	return s
}

// Restore replaces the processor state. The bus attachment, clock source,
// diverter, and spy hooks are wiring, not state, and are left untouched.
func (c *CPU) Restore(s State) {
	c.Regs, c.PC, c.PSR, c.CR = s.Regs, s.PC, s.PSR, s.CR
	c.halted, c.wedged = s.Halted, s.Wedged
	c.tlb, c.tlbGen = s.TLB, s.TLBGen
	if s.HasIOBitmap {
		bm := s.IOBitmap
		c.ioBitmap = &bm
	} else {
		c.ioBitmap = nil
	}
	c.hwBreak, c.hwBreakEn = s.HWBreak, s.HWBreakEn
	c.watchAddr, c.watchLen, c.watchEn = s.WatchAddr, s.WatchLen, s.WatchEn
	// Rebuild the derived arming state (any-flags, armed page set, write
	// envelope) from the restored slots; spy slots are wiring and persist.
	c.recalcObservers()
	c.Stat = s.Stat
	// The decode cache, superblocks and native code are not state, and
	// stay warm: the machine's restore walk drops what was derived from
	// each word whose bytes it changes (DropWord), and every other word
	// still decodes to what its bytes say. Warm vs cold is
	// timeline-invisible — decoding and compiling charge no cycles — which
	// is what keeps snapshots replay-safe. The invalidation pressure each
	// page has built up starts over, as it did when a restore flushed the
	// cache.
	for _, sp := range c.sbPages {
		if sp != nil {
			sp.bumps = 0
		}
	}
}

// PageDerived reports whether the predecoded tiers hold anything derived
// from physical page pfn — decoded instructions or superblocks — that
// DropWord could discard. A restore walk compares only such pages with
// their image; every other page it rewrites blind.
func (c *CPU) PageDerived(pfn uint32) bool {
	return pfn < uint32(len(c.dcPages)) && (c.dcPages[pfn] != nil || c.sbPages[pfn] != nil)
}

// DropWord discards what the predecoded tiers derived from the aligned
// word at physical address pa, which must lie in RAM, after its bytes
// were rewritten outside the write path (a snapshot restore): its decode
// slot, and the superblocks (with their native code) of its page when the
// word lies in their extent — what a store there would drop. It marks
// nothing dirty and counts no invalidation pressure: a restore is not a
// sign of mixed code and data.
func (c *CPU) DropWord(pa uint32) {
	pfn := pa >> isa.PageShift
	i := (pa & isa.PageMask) >> 2
	if pg := c.dcPages[pfn]; pg != nil {
		pg.ins[i].fn = fnUnset
	}
	if sp := c.sbPages[pfn]; sp != nil && sp.lo <= i && i <= sp.hi {
		sp.epoch++
		sp.lo, sp.hi = ^uint32(0), 0
	}
}

// Spy watchpoints observe stores into a range without raising a trap or
// charging cycles — unlike architectural watchpoints, they are invisible
// to the executing timeline. The replay engine uses them to locate
// watchpoint crossings while re-executing a recorded run, where a real
// CauseWatch trap would perturb the monitor's cycle accounting and
// diverge the replay.

// SetSpyWatch configures non-intrusive store-observation slot i (0..3)
// over [addr, addr+length).
func (c *CPU) SetSpyWatch(i int, addr, length uint32, enabled bool) error {
	if i < 0 || i >= len(c.spyAddr) {
		return fmt.Errorf("cpu: spy watch slot %d out of range", i)
	}
	c.spyAddr[i] = addr
	c.spyLen[i] = length
	c.spyEn[i] = enabled
	c.recalcObservers()
	return nil
}

// ClearSpyWatches disables all spy slots and removes the hook.
func (c *CPU) ClearSpyWatches() {
	c.spyEn = [4]bool{}
	c.SpyHook = nil
	c.recalcObservers()
}

// spyHit reports whether a store to [va, va+n) intersects an enabled spy
// range, returning the watched address.
func (c *CPU) spyHit(va, n uint32) (uint32, bool) {
	for i, en := range c.spyEn {
		if !en {
			continue
		}
		w0, w1 := c.spyAddr[i], c.spyAddr[i]+c.spyLen[i]
		if va < w1 && va+n > w0 {
			return c.spyAddr[i], true
		}
	}
	return 0, false
}

// notifySpy invokes the spy hook for a committed store.
func (c *CPU) notifySpy(va, n uint32) {
	if wa, hit := c.spyHit(va, n); hit && c.SpyHook != nil {
		c.SpyHook(wa)
	}
}
