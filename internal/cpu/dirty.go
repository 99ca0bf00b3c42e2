package cpu

import "lvmm/internal/isa"

// Dirty physical-page tracking for delta snapshots (internal/replay).
//
// The decode cache's invalidation paths already observe every write into
// RAM — storeInvalidate the CPU's single stores and page-walk A/D
// updates, dcInvalidate MOVS/STOS fills, device DMA and debugger patches
// — because correctness of the predecoded engine depends on it. Dirty
// tracking piggybacks on those choke points: when enabled, every
// invalidation also sets a bit per touched physical page, and a recorder
// drains the bitmap at each periodic checkpoint to capture only the pages
// that changed since the previous one. The tracking itself is timeline-neutral (no cycles, no
// traps), so it does not disqualify predecoded bursts and recordings
// stay bit-identical with and without it.

// SetDirtyTracking enables (true) or disables (false) dirty physical-
// page accounting. Enabling allocates a fresh bitmap (all pages clean);
// disabling releases it. Either starts a new generation.
func (c *CPU) SetDirtyTracking(on bool) {
	c.dirtyGen++
	if !on {
		c.dirtyPages = nil
		return
	}
	pages := (c.bus.RAMSize() + isa.PageMask) >> isa.PageShift
	c.dirtyPages = make([]uint64, (pages+63)/64)
}

// DirtyTracking reports whether dirty-page accounting is enabled.
func (c *CPU) DirtyTracking() bool { return c.dirtyPages != nil }

// DirtyPages returns the live bitmap (one bit per physical page, LSB =
// lowest page of each word), or nil when tracking is off. The caller
// must not retain the slice across a ResetDirtyPages.
func (c *CPU) DirtyPages() []uint64 { return c.dirtyPages }

// ResetDirtyPages marks every page clean, starting a new delta window
// and a new generation.
func (c *CPU) ResetDirtyPages() {
	c.dirtyGen++
	clear(c.dirtyPages)
}

// MarkDirty marks the pages of the n bytes at physical address addr
// dirty without writing them, in the current generation. The replayer
// uses it to fold a discarded delta checkpoint's pages back into the
// window it was cut from. A no-op when tracking is off or n == 0.
func (c *CPU) MarkDirty(addr, n uint32) {
	if c.dirtyPages != nil && n > 0 {
		c.markDirty(addr, n)
	}
}

// DirtyGen returns the bitmap's generation: it changes whenever
// ResetDirtyPages or SetDirtyTracking starts a new window. The bitmap
// has two users — the recorder drains it at every checkpoint, the
// replayer's undo restore relies on it covering every write since its
// own last restore — so the replayer checks the generation before
// trusting the bitmap.
func (c *CPU) DirtyGen() uint64 { return c.dirtyGen }

// CovShift is the write-coverage granule: one coverage bit spans a
// 1 MB block of physical memory, so the whole map of a 64 MB machine
// is a single uint64 and maintaining it costs one OR per write.
const CovShift = 20

// coverageBits returns the coverage-bit mask for a write of n bytes at
// physical address addr (n > 0, addr+n free of overflow — dcInvalidate's
// callers validate against installed RAM). Blocks past bit 62 saturate
// into bit 63, which therefore covers everything from 63 MB up; on
// machines with more than 64 MB of RAM that whole region shares one bit.
func coverageBits(addr, n uint32) uint64 {
	lo := addr >> CovShift
	hi := (addr + n - 1) >> CovShift
	if hi > 63 {
		hi = 63
		if lo > 63 {
			lo = 63
		}
	}
	return (^uint64(0) << lo) & (^uint64(0) >> (63 - hi))
}

// WriteCoverage returns the write-coverage bitmap: bit b set means some
// write touched the 1 MB block at b<<CovShift (bit 63: 63 MB and up). A
// clear bit proves the block is still zero — physical memory starts
// zeroed and every writer (CPU stores, string ops, page-walk updates,
// DMA, image loads, debugger patches) funnels through dcInvalidate or
// storeInvalidate, which maintain the map. Sparse consumers (keyframe snapshots, the
// replay digest) skip clear blocks instead of scanning installed-but-
// untouched memory.
func (c *CPU) WriteCoverage() uint64 { return c.writeCov }

// SetWriteCoverage overrides the coverage map after memory was
// rewritten wholesale outside the write path (machine Restore, which
// zeroes every covered byte outside the snapshot's chunks). Every block
// not covered by cov must be entirely zero.
func (c *CPU) SetWriteCoverage(cov uint64) { c.writeCov = cov }

// AddWriteCoverage marks the blocks touched by an out-of-band write of
// n bytes at addr (snapshot chunk restores, delta RAM application).
// n == 0 is a no-op.
func (c *CPU) AddWriteCoverage(addr, n uint32) {
	if n == 0 {
		return
	}
	c.writeCov |= coverageBits(addr, n)
}

// markDirty records a write of n bytes at physical address addr. Called
// from dcInvalidate only when tracking is on; bounds follow dcPages
// (both cover exactly the installed RAM).
func (c *CPU) markDirty(addr, n uint32) {
	first := addr >> isa.PageShift
	last := (addr + n - 1) >> isa.PageShift
	if max := uint32(len(c.dcPages)); last >= max {
		if first >= max {
			return
		}
		last = max - 1
	}
	for p := first; p <= last; p++ {
		c.dirtyPages[p>>6] |= 1 << (p & 63)
	}
}
