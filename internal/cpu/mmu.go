package cpu

import "lvmm/internal/isa"

// HX32 paging is x86-classic: a two-level table of 4 KB pages, with
// Present/Writable/User/Accessed/Dirty bits at both levels. Exactly one
// user/supervisor bit exists — the hardware cannot distinguish ring 0 from
// ring 1, which is why the paper's monitor needs its address-space
// separation trick for the third protection level. Write protection binds
// supervisors too (x86 CR0.WP=1 behaviour, required for direct paging).

const (
	tlbEntries = 512 // direct-mapped
)

// TLBEntry is one direct-mapped translation cache entry. It is exported
// (with exported fields) so CPU snapshots can carry the TLB verbatim:
// replaying with a cold TLB would change TLB-miss cycle charges and break
// bit-identical timing.
type TLBEntry struct {
	Gen uint32 // generation; mismatch = invalid
	VPN uint32
	PFN uint32
	W   bool // writable (combined PDE & PTE)
	U   bool // user accessible (combined)
	D   bool // dirty already set in PTE
}

// PagingEnabled reports whether address translation is active.
func (c *CPU) PagingEnabled() bool { return c.CR[isa.CRPtbr]&1 != 0 }

// FlushTLB invalidates all cached translations. The decode cache survives
// deliberately: it is indexed by physical page and every fetch translates
// its PC through the TLB first, so remaps and PTBR changes are handled by
// translation, not by decode-cache invalidation — flushing it here would
// re-decode the working set on every world switch (measured ~3× on the
// Figure 3.1 macro benchmark, where the monitor flushes constantly).
func (c *CPU) FlushTLB() { c.tlbGen++ }

// translate maps a virtual address to physical for an access by the
// current privilege level. Returns the physical address, a trap cause
// (CauseNone on success), and extra cycles charged (TLB miss penalty).
// Its hit arm has a twin, tlbHit (eval.go), which the predecoded tiers
// inline; Step reaches memory only through this one, so the lockstep
// differentials check the twin against it.
func (c *CPU) translate(va uint32, write bool) (pa, cause uint32, cycles uint64) {
	if !c.PagingEnabled() {
		return va, isa.CauseNone, 0
	}
	user := c.CPL() == isa.CPLUser
	vpn := va >> isa.PageShift
	e := &c.tlb[vpn%tlbEntries]
	if e.Gen == c.tlbGen && e.VPN == vpn {
		if user && !e.U {
			return 0, isa.CausePFProt, 0
		}
		if write && !e.W {
			return 0, isa.CausePFProt, 0
		}
		if write && !e.D {
			// Dirty bit not yet set: take the slow path to update the PTE.
			return c.walk(va, write, user)
		}
		return e.PFN<<isa.PageShift | va&isa.PageMask, isa.CauseNone, 0
	}
	return c.walk(va, write, user)
}

// walk performs the two-level page-table walk, updates A/D bits, and fills
// the TLB.
func (c *CPU) walk(va uint32, write, user bool) (pa, cause uint32, cycles uint64) {
	c.Stat.TLBMisses++
	cycles = isa.CycTLBMiss

	pdBase := c.CR[isa.CRPtbr] &^ uint32(isa.PageMask)
	pdeAddr := pdBase + (va>>22)*4
	pde, ok := c.bus.Read32(pdeAddr)
	if !ok {
		return 0, isa.CauseBusError, cycles
	}
	if pde&isa.PTEPresent == 0 {
		return 0, isa.CausePFNotPres, cycles
	}
	ptBase := pde &^ uint32(isa.PageMask)
	pteAddr := ptBase + (va>>isa.PageShift&0x3FF)*4
	pte, ok := c.bus.Read32(pteAddr)
	if !ok {
		return 0, isa.CauseBusError, cycles
	}
	if pte&isa.PTEPresent == 0 {
		return 0, isa.CausePFNotPres, cycles
	}

	w := pde&isa.PTEWritable != 0 && pte&isa.PTEWritable != 0
	u := pde&isa.PTEUser != 0 && pte&isa.PTEUser != 0
	if user && !u {
		return 0, isa.CausePFProt, cycles
	}
	if write && !w {
		return 0, isa.CausePFProt, cycles
	}

	// Update accessed/dirty bits. Both entries are aligned words the
	// reads above found in RAM, so they take the one-slot store funnel.
	newPDE := pde | isa.PTEAccessed
	if newPDE != pde {
		storeSW(c.ram, pdeAddr, newPDE)
		c.storeInvalidate(pdeAddr)
	}
	newPTE := pte | isa.PTEAccessed
	if write {
		newPTE |= isa.PTEDirty
	}
	if newPTE != pte {
		storeSW(c.ram, pteAddr, newPTE)
		c.storeInvalidate(pteAddr)
	}

	vpn := va >> isa.PageShift
	pfn := pte >> isa.PageShift
	c.tlb[vpn%tlbEntries] = TLBEntry{
		Gen: c.tlbGen, VPN: vpn, PFN: pfn,
		W: w, U: u, D: newPTE&isa.PTEDirty != 0,
	}
	return pfn<<isa.PageShift | va&isa.PageMask, isa.CauseNone, cycles
}

// TranslateDebug translates va without charging cycles, setting A/D bits,
// or requiring permissions beyond presence. Used by debuggers and the
// monitor to inspect guest memory non-intrusively.
func (c *CPU) TranslateDebug(va uint32) (pa uint32, ok bool) {
	if !c.PagingEnabled() {
		return va, true
	}
	pdBase := c.CR[isa.CRPtbr] &^ uint32(isa.PageMask)
	pde, ok := c.bus.Read32(pdBase + (va>>22)*4)
	if !ok || pde&isa.PTEPresent == 0 {
		return 0, false
	}
	pte, ok := c.bus.Read32((pde &^ uint32(isa.PageMask)) + (va>>isa.PageShift&0x3FF)*4)
	if !ok || pte&isa.PTEPresent == 0 {
		return 0, false
	}
	return pte&^uint32(isa.PageMask) | va&isa.PageMask, true
}

// ReadVirt reads n bytes at virtual address va through the current page
// tables with debug semantics (no faults, no A/D updates). Returns the
// bytes read and whether the whole range was mapped.
func (c *CPU) ReadVirt(va uint32, n int) ([]byte, bool) {
	out := make([]byte, 0, n)
	for n > 0 {
		chunk := isa.PageSize - int(va&isa.PageMask)
		if chunk > n {
			chunk = n
		}
		pa, ok := c.TranslateDebug(va)
		if !ok || !c.bus.InRAM(pa, uint32(chunk)) {
			return out, false
		}
		out = append(out, c.bus.RAM()[pa:pa+uint32(chunk)]...)
		va += uint32(chunk)
		n -= chunk
	}
	return out, true
}

// WriteVirt writes data at virtual address va with debug semantics: only
// presence is required (a debugger can patch read-only text, as a hardware
// debugger would). Reports whether the whole range was mapped.
func (c *CPU) WriteVirt(va uint32, data []byte) bool {
	for len(data) > 0 {
		chunk := isa.PageSize - int(va&isa.PageMask)
		if chunk > len(data) {
			chunk = len(data)
		}
		pa, ok := c.TranslateDebug(va)
		if !ok || !c.bus.InRAM(pa, uint32(chunk)) {
			return false
		}
		copy(c.bus.RAM()[pa:], data[:chunk])
		c.dcInvalidate(pa, uint32(chunk))
		va += uint32(chunk)
		data = data[chunk:]
	}
	return true
}

// ReadVirt32 reads one word with debug semantics.
func (c *CPU) ReadVirt32(va uint32) (uint32, bool) {
	b, ok := c.ReadVirt(va, 4)
	if !ok {
		return 0, false
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, true
}

// WriteVirt32 writes one word with debug semantics.
func (c *CPU) WriteVirt32(va, v uint32) bool {
	return c.WriteVirt(va, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}
