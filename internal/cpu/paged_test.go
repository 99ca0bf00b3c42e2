package cpu

import (
	"bytes"
	"math/rand"
	"testing"

	"lvmm/internal/bus"
	"lvmm/internal/isa"
)

// The paged differential: the predecoded tiers take loads, stores and
// block-entry fetches inline on a TLB hit (tlbHit, eval.go) and leave
// everything else to translate. These tests run random programs with
// paging on, at user and supervisor CPL, over data pages whose PTEs cover
// every case the hit check must refuse — read-only, clean (D=0),
// supervisor-only, not present, a frame past RAM — plus an observed page,
// pages whose VPNs evict the code pages' direct-mapped TLB slots, stores
// into the code pages and loads-only loops that walk across pages. Step
// and BurstRun run them in lockstep (one tick at a time, then at an open
// budget so superblocks, chains and batched loops engage), and must agree
// on every register, the TLB, the statistics, every cycle, every spy hit
// and all of RAM.

const (
	pagedRAM     = 1 << 19
	pagedProg    = 0x1F00 // straddles code pages 1 and 2
	pagedHandler = 0x3000
	pagedPD      = 0x40000
	pagedKData   = 0x12000 // supervisor-only; the trap handler reads it
	pagedWatched = 0x16000
	pagedKCode   = 0x5000 // supervisor-only code
)

// pagedPages are the data mappings, indexed by the generator.
var pagedPages = []struct{ va, pa, flags uint32 }{
	{0x10000, 0x10000, isa.PTEPresent | isa.PTEWritable | isa.PTEUser},
	// W=0.
	{0x11000, 0x11000, isa.PTEPresent | isa.PTEUser},
	// U=0.
	{pagedKData, pagedKData, isa.PTEPresent | isa.PTEWritable},
	// Not present.
	{0x13000, 0x13000, isa.PTEWritable | isa.PTEUser},
	// A frame past RAM.
	{0x14000, 2 * pagedRAM, isa.PTEPresent | isa.PTEWritable | isa.PTEUser},
	// Already dirty: stores hit from the first fill.
	{0x15000, 0x15000, isa.PTEPresent | isa.PTEWritable | isa.PTEUser | isa.PTEAccessed | isa.PTEDirty},
	// Watched and spied.
	{pagedWatched, pagedWatched, isa.PTEPresent | isa.PTEWritable | isa.PTEUser},
	// VPNs sharing the TLB slots of code pages 1 and 2.
	{(pagedProg>>isa.PageShift + tlbEntries) << isa.PageShift, 0x17000, isa.PTEPresent | isa.PTEWritable | isa.PTEUser},
	{(pagedProg>>isa.PageShift + 1 + tlbEntries) << isa.PageShift, 0x18000, isa.PTEPresent | isa.PTEWritable | isa.PTEUser},
	// W=0 with D=1: a hit for a store must test W, not just D.
	{0x19000, 0x19000, isa.PTEPresent | isa.PTEUser | isa.PTEAccessed | isa.PTEDirty},
}

var (
	pagedLoads  = []uint32{isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU}
	pagedStores = []uint32{isa.OpSW, isa.OpSH, isa.OpSB}
)

// pagedHandlerCode is the trap handler, at CPL0: it skips the trapping
// instruction, reads the supervisor-only page (filling its TLB entry with
// U=0 for the interrupted code to trip over) and returns.
var pagedHandlerCode = []uint32{
	isa.EncodeI(isa.OpMOVCR, 13, 0, isa.CREpc),
	isa.EncodeI(isa.OpADDI, 13, 13, 4),
	isa.EncodeI(isa.OpMOVRC, 0, 13, isa.CREpc),
	isa.EncodeI(isa.OpADDI, 13, 0, pagedKData),
	isa.EncodeI(isa.OpLW, 13, 13, 0),
	isa.EncodeR(isa.OpIRET, 0, 0, 0),
}

// pagedLUI returns the two words that point register r at va (+off).
func pagedLUI(r int, va, off uint32) []uint32 {
	return []uint32{
		isa.EncodeI(isa.OpLUI, r, 0, int32(va>>14)),
		isa.EncodeI(isa.OpORI, r, r, int32(va&0x3FFF+off)),
	}
}

// genPagedInstrs appends the instruction(s) three fuzz bytes select.
// Memory ops address off r12 (a data page the program re-points), r15 (a
// pointer that walks across pages) or r14 (the program itself), at
// offsets that include every misalignment.
func genPagedInstrs(words []uint32, sel, a, b byte) []uint32 {
	r1, r2 := 1+int(a)%10, 1+int(b)%10
	hi := int(sel) / 16
	base := 12 + 3*(int(a)/128) // r12 or r15
	switch sel % 16 {
	case 0, 1, 2:
		op := chainALU[hi%len(chainALU)]
		rd := int(a) % 11 // r0 included: the write is discarded
		if op >= isa.OpADDI {
			return append(words, isa.EncodeI(op, rd, r2, int32(int8(b^a))))
		}
		return append(words, isa.EncodeR(op, rd, r2, 1+(int(a)/11)%10))
	case 3:
		// Move the walking pointer, sometimes across a page.
		return append(words, isa.EncodeI(isa.OpADDI, 15, 15, int32(int8(b))*int32(1+hi%16)))
	case 4, 5, 6:
		return append(words, isa.EncodeI(pagedLoads[hi%len(pagedLoads)], r1, base, int32(b)-16))
	case 7, 8:
		return append(words, isa.EncodeI(pagedStores[hi%len(pagedStores)], r1, base, int32(b)-16))
	case 9:
		// Store into the code pages: SMC, mid-block invalidation.
		return append(words, isa.EncodeI(pagedStores[hi%len(pagedStores)], r1, 14, int32(b)*2))
	case 10:
		// Backward branch: a short loop over the preceding ops.
		return append(words, isa.EncodeI(chainBranch[hi%len(chainBranch)], r1, r2, -1-int32(a%6)))
	case 11:
		return append(words, isa.EncodeI(chainBranch[hi%len(chainBranch)], r1, r2, int32(b%8)))
	case 12:
		p := pagedPages[int(a)%len(pagedPages)]
		return append(words, pagedLUI(12, p.va, uint32(b)&0xFFC)...)
	case 13:
		// A loads-only loop walking r15 by step for 1..32 iterations
		// (counter r11): it crosses pages, and misaligned steps trap.
		steps := []int32{2, 4, 8, 256, 1024, 2048, 4096, 4098}
		return append(words,
			isa.EncodeI(isa.OpADDI, 11, 0, 1+int32(a%32)),
			isa.EncodeI(isa.OpADDI, 15, 15, steps[b%8]),
			isa.EncodeI(pagedLoads[hi%len(pagedLoads)], r1, 15, 0),
			isa.EncodeR(isa.OpADD, r2, r2, r1),
			isa.EncodeI(isa.OpADDI, 11, 11, -1),
			isa.EncodeI(isa.OpBNE, 11, 0, -5))
	case 14:
		return append(words, isa.EncodeR(isa.OpSYSCALL, 0, 0, 0))
	default:
		// A load then a store to one word: the load fills a clean TLB
		// entry, so the store must walk to set the dirty bit.
		return append(words,
			isa.EncodeI(isa.OpLW, r1, base, int32(b&0xFC)),
			isa.EncodeI(isa.OpSW, r2, base, int32(b&0xFC)))
	}
}

// pagedTwins builds slow and fast CPUs with the paged layout, words
// loaded at pagedProg, paging on and the configuration byte applied: bits
// 0-1 the CPL (0, 1, or user), bits 2-5 the data page r12 starts on, bit
// 6 a watchpoint and bit 7 a spy watch on the observed page. Returns the
// spy hit counters.
func pagedTwins(cfg byte, words []uint32) (slow, fast *CPU, spies *[2]int) {
	slow, fast = twinCPUs(pagedRAM, pagedProg)
	spies = new([2]int)
	for i, c := range []*CPU{slow, fast} {
		pt := newPTBuilder(c.Bus(), pagedPD)
		pt.mapPage(0, 0, isa.PTEPresent|isa.PTEWritable) // vector table
		pt.mapRange(0x1000, 0x1000, 0x2000, isa.PTEPresent|isa.PTEWritable|isa.PTEUser)
		pt.mapPage(pagedHandler, pagedHandler, isa.PTEPresent|isa.PTEWritable)
		pt.mapPage(pagedKCode, pagedKCode, isa.PTEPresent|isa.PTEWritable)
		for _, p := range pagedPages {
			pt.mapPage(p.va, p.pa, p.flags)
		}
		for v := uint32(0); v < isa.NumVectors; v++ {
			c.Bus().Write32(v*4, pagedHandler)
		}
		for j, w := range pagedHandlerCode {
			c.Bus().Write32(pagedHandler+uint32(j)*4, w)
		}
		for j, w := range words {
			c.Bus().Write32(pagedProg+uint32(j)*4, w)
		}
		// Recognizable data: every data frame holds its own addresses.
		for pa := uint32(0x10000); pa < 0x1A000; pa += 4 {
			c.Bus().Write32(pa, pa*0x9E3779B1)
		}
		c.CR[isa.CRPtbr] = pagedPD | 1
		c.PSR = isa.WithCPL(0, []uint32{0, 1, isa.CPLUser, isa.CPLUser}[cfg&3])
		for r := 1; r < 12; r++ {
			c.Regs[r] = uint32(r) * 0x01010101
		}
		c.Regs[12] = pagedPages[int(cfg>>2&15)%len(pagedPages)].va
		c.Regs[14] = pagedProg
		c.Regs[15] = 0x10000 + 0xF00
		if cfg&0x40 != 0 {
			if err := c.SetWatchpoint(0, pagedWatched+0x40, 8, true); err != nil {
				panic(err)
			}
		}
		if cfg&0x80 != 0 {
			hits := &spies[i]
			c.SpyHook = func(uint32) { *hits++ }
			if err := c.SetSpyWatch(0, pagedWatched, 0x100, true); err != nil {
				panic(err)
			}
		}
	}
	return slow, fast, spies
}

// pagedDiff runs words under configuration cfg on both engines, one tick
// at a time and then in open-budget bursts, and fails on any difference.
func pagedDiff(t *testing.T, cfg byte, words []uint32) {
	t.Helper()
	words = append(words, isa.EncodeR(isa.OpHLT, 0, 0, 0))
	if len(words) > (pagedHandler-pagedProg)/4 {
		words = words[:(pagedHandler-pagedProg)/4]
	}
	slow, fast, _ := pagedTwins(cfg, words)
	lockstep(t, slow, fast, 400)
	// Open-budget bursts with blocks interpreted, then with every block
	// compiled to native code on its first run.
	bothTiers(t, func() SBStats {
		slow, fast, spies := pagedTwins(cfg, words)
		burstVsStep(t, slow, fast, 1<<62, 4000)
		if spies[0] != spies[1] {
			t.Fatalf("spy hits: slow %d, fast %d", spies[0], spies[1])
		}
		if !bytes.Equal(slow.Bus().RAM(), fast.Bus().RAM()) {
			t.Fatal("RAM diverged")
		}
		return fast.SBStats()
	})
}

func pagedDiffBody(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	var words []uint32
	for i := 1; i+2 < len(data); i += 3 {
		words = genPagedInstrs(words, data[i], data[i+1], data[i+2])
	}
	pagedDiff(t, data[0], words)
}

func FuzzPagedDiff(f *testing.F) {
	f.Add([]byte{0x03, 4, 0, 40, 10, 1, 2, 0})            // user: loads, back-branch
	f.Add([]byte{0x00, 13, 3, 6, 13, 20, 4, 7, 1, 1})     // supervisor: page-walking loads loop
	f.Add([]byte{0x47, 15, 9, 64, 12, 6, 0x40, 7, 2, 70}) // watch armed, stores to it
	f.Add([]byte{0x8B, 14, 0, 0, 4, 2, 0, 5, 2, 2, 10, 3, 3})
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 13+rng.Intn(90))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(pagedDiffBody)
}

// TestPagedDiffSeeds runs a deterministic random corpus through the paged
// differential, so `go test` covers it without the fuzz engine.
func TestPagedDiffSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		data := make([]byte, 10+rng.Intn(120))
		rng.Read(data)
		pagedDiffBody(t, data)
	}
}

// TestPagedDiffScenarios pins the cases the inline hit check must refuse,
// each as a block the superblock tier runs after the TLB entry it would
// wrongly hit is live.
func TestPagedDiffScenarios(t *testing.T) {
	loop := func(body ...uint32) []uint32 {
		// body, then a counted backward branch over it (r11 = 3 turns).
		w := append([]uint32{isa.EncodeI(isa.OpADDI, 11, 0, 3)}, body...)
		w = append(w, isa.EncodeI(isa.OpADDI, 11, 11, -1),
			isa.EncodeI(isa.OpBNE, 11, 0, -int32(len(body))-2))
		return w
	}
	cases := []struct {
		name  string
		cfg   byte
		words []uint32
	}{
		// The trap handler leaves a U=0 entry for the kernel page; the
		// user block's load and store must still fault.
		{"user-after-kernel-fill", 0x03 | 2<<2, append([]uint32{isa.EncodeR(isa.OpSYSCALL, 0, 0, 0), 0},
			loop(isa.EncodeI(isa.OpLW, 1, 12, 0), isa.EncodeI(isa.OpSW, 1, 12, 8))...)},
		// A load fills a clean entry; the store after it must walk to set D.
		{"clean-entry-store", 0x03, loop(isa.EncodeI(isa.OpLW, 1, 12, 0), isa.EncodeI(isa.OpSW, 1, 12, 4), isa.EncodeI(isa.OpADDI, 12, 12, 8))},
		{"clean-entry-store-supervisor", 0x00, loop(isa.EncodeI(isa.OpLHU, 1, 12, 2), isa.EncodeI(isa.OpSH, 1, 12, 6))},
		// Read-only page: the load hits, the store faults.
		{"read-only", 0x03 | 1<<2, loop(isa.EncodeI(isa.OpLW, 1, 12, 0), isa.EncodeI(isa.OpSB, 1, 12, 3))},
		// Frame past RAM: translation succeeds, the access is a bus error.
		{"pfn-past-ram", 0x03 | 4<<2, loop(isa.EncodeI(isa.OpLB, 1, 12, 5), isa.EncodeI(isa.OpSW, 1, 12, 0))},
		// Not present.
		{"not-present", 0x00 | 3<<2, loop(isa.EncodeI(isa.OpLW, 1, 12, 0), isa.EncodeI(isa.OpADDI, 2, 2, 1))},
		// Misaligned halfword and word accesses on a dirty page.
		{"misaligned", 0x03 | 5<<2, loop(isa.EncodeI(isa.OpLH, 1, 12, 1), isa.EncodeI(isa.OpLW, 2, 12, 6), isa.EncodeI(isa.OpSH, 1, 12, 3), isa.EncodeI(isa.OpSW, 1, 12, 2))},
		// Stores into the watched and spied page.
		{"observed", 0xC3 | 6<<2, loop(isa.EncodeI(isa.OpSW, 1, 12, 0x40), isa.EncodeI(isa.OpSB, 1, 12, 0x80), isa.EncodeI(isa.OpLW, 2, 12, 0x40))},
		// Data accesses whose VPN shares the code page's TLB slot.
		{"evict-code-slot", 0x03 | 7<<2, loop(isa.EncodeI(isa.OpLW, 1, 12, 0), isa.EncodeI(isa.OpSW, 1, 12, 4), isa.EncodeI(isa.OpADDI, 2, 2, 1))},
		// Stores into the running block's own page.
		{"smc", 0x03, loop(isa.EncodeI(isa.OpSW, 0, 14, 0x40), isa.EncodeI(isa.OpADDI, 2, 2, 1))},
		// Read-only but dirty: the store must fault on W alone.
		{"read-only-dirty", 0x03 | 9<<2, loop(isa.EncodeI(isa.OpLW, 1, 12, 0), isa.EncodeI(isa.OpADDI, 2, 2, 1), isa.EncodeI(isa.OpSW, 1, 12, 4))},
		// A TLB flush between turns: the entries the block hit are stale
		// (old generation, same VPN), so its next load must walk.
		{"flushed-entry", 0x00, loop(isa.EncodeI(isa.OpLW, 1, 12, 0), isa.EncodeI(isa.OpADDI, 2, 2, 1), isa.EncodeR(isa.OpTLBINV, 0, 0, 0))},
		// A loads-only loop whose pointer walks from a user page into the
		// read-only, kernel and absent pages.
		{"loads-only-cross-page", 0x03, append(pagedLUI(15, 0x10000, 0xF80),
			isa.EncodeI(isa.OpADDI, 11, 0, 200),
			isa.EncodeI(isa.OpADDI, 15, 15, 64),
			isa.EncodeI(isa.OpLW, 1, 15, 0),
			isa.EncodeR(isa.OpADD, 2, 2, 1),
			isa.EncodeI(isa.OpLHU, 3, 15, 6),
			isa.EncodeI(isa.OpADDI, 11, 11, -1),
			isa.EncodeI(isa.OpBNE, 11, 0, -6))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { pagedDiff(t, tc.cfg, tc.words) })
	}
}

// TestPagedFetchUserBit: code that ran at supervisor CPL jumps into a
// supervisor-only page, leaving a U=0 entry in the TLB (and, after
// sbChainMin turns, a chain edge); at user CPL the same jump must fault
// on the fetch, whether the dispatcher or a chain follow makes it.
func TestPagedFetchUserBit(t *testing.T) {
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeJ(isa.OpJAL, 0, (pagedKCode-pagedProg-8)/4),
	}
	kwords := []uint32{
		isa.EncodeI(isa.OpADDI, 2, 2, 1),
		isa.EncodeJ(isa.OpJAL, 0, -(pagedKCode-pagedProg+8)/4),
	}
	toUser := func(cs ...*CPU) {
		for _, c := range cs {
			c.PSR = isa.WithCPL(c.PSR, isa.CPLUser)
		}
	}
	// Dispatcher: a few supervisor turns, too few to chain.
	slow, fast, _ := pagedTwins(0x01, words)
	loadBoth(slow, fast, pagedKCode, kwords)
	lockstep(t, slow, fast, 6)
	toUser(slow, fast)
	lockstep(t, slow, fast, 20)
	// Chain follow: enough supervisor turns to link both edges.
	slow, fast, _ = pagedTwins(0x01, words)
	loadBoth(slow, fast, pagedKCode, kwords)
	burstVsStep(t, slow, fast, 1<<62, 200)
	if fast.SBStats().ChainHits == 0 {
		t.Fatalf("supervisor loop never chained: %+v", fast.SBStats())
	}
	toUser(slow, fast)
	burstVsStep(t, slow, fast, 1<<62, 200)
	if fast.Stat.Traps == 0 {
		t.Fatal("user jump into the supervisor page did not fault")
	}
}

// TestTLBHitMirrorsTranslate checks tlbHit against translate's hit arm on
// every combination of entry state and access: where tlbHit reports a
// hit, translate must return the same address with no cycles and no
// side effect; where it does not, translate must fault or walk.
func TestTLBHitMirrorsTranslate(t *testing.T) {
	c := New(bus.New(pagedRAM), 0)
	c.CR[isa.CRPtbr] = pagedPD | 1 // no tables: every walk is a bus error or not-present
	const va = 0x5123
	for bits := 0; bits < 1<<5; bits++ {
		for _, cpl := range []uint32{0, isa.CPLUser} {
			for _, write := range []bool{false, true} {
				c.PSR = isa.WithCPL(0, cpl)
				e := TLBEntry{Gen: c.tlbGen, VPN: va >> isa.PageShift, PFN: 0x77,
					W: bits&1 != 0, U: bits&2 != 0, D: bits&4 != 0}
				if bits&8 != 0 {
					e.Gen++ // stale
				}
				if bits&16 != 0 {
					e.VPN += tlbEntries // same slot, other page
				}
				c.tlb[(va>>isa.PageShift)%tlbEntries] = e
				misses := c.Stat.TLBMisses
				pa, hit := c.tlbHit(va, write, cpl == isa.CPLUser)
				tpa, cause, cyc := c.translate(va, write)
				walked := c.Stat.TLBMisses != misses
				if hit && (cause != isa.CauseNone || tpa != pa || cyc != 0 || walked) {
					t.Fatalf("entry %+v cpl %d write %v: tlbHit %#x, translate %#x cause %d cycles %d walked %v",
						e, cpl, write, pa, tpa, cause, cyc, walked)
				}
				if !hit && cause == isa.CauseNone && !walked {
					t.Fatalf("entry %+v cpl %d write %v: tlbHit refused a translate hit", e, cpl, write)
				}
			}
		}
	}
}
