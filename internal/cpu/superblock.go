package cpu

import (
	"fmt"

	"lvmm/internal/isa"
)

// Superblock execution tier.
//
// The predecoded engine (decode.go) still pays per-instruction dispatch:
// every instruction re-checks the tick budget, re-translates its PC,
// re-indexes the decode cache, and re-compares the clock against the event
// horizon. Superblocks lift all of that to basic-block granularity: a
// straight-line run of predecoded alu and memory ops within one physical
// page — ended by a branch/jump (included), a slow or aluRare op
// (excluded: SLT/SLTU/MUL/DIVU/REMU are too rare in guest code to earn a
// place in the block loops), or the page edge — is copied into a
// contiguous block, entered with ONE fetch translation and ONE cache
// lookup, and executed with batched clock and instruction-count
// bookkeeping. Memory ops that hit the TLB run inline (eval.go's tlbHit
// and load/store arms) with their cycles batched too. Hot exits are then
// chained block→block — each block has a taken edge and a fall edge
// (profile-counted, installed after sbChainMin exits), so a tight loop or
// a run of straight-line blocks dispatches without returning to
// BurstRun's loop top.
//
// Correctness invariants, in decreasing order of subtlety:
//
//   - Exact commit points. The machine's diverter, spy hooks, and watch
//     traps may observe the clock and Stat.Instructions mid-block, so the
//     batched bookkeeping is flushed before every op that can trap or be
//     observed: a memory op that misses the TLB, would walk to set a dirty
//     bit, is misaligned or outside RAM, or stores into the armed write
//     envelope, all of which run through executeFast. A memory op that
//     hits runs inline and cannot trap or fire a hook, like an ALU op,
//     branch or jump. At every observation point both engines therefore
//     show identical state; between observation points batching is
//     invisible.
//
//   - Horizon safety. A block is entered only when clk + entryFetch +
//     cycMax < horizon, where cycMax is a worst-case bound on the block's
//     non-trapping cycle charges (base cycles plus a TLB-miss penalty per
//     memory op, taken-cost for the terminator). The per-instruction
//     engine checks the horizon after every instruction; under the cap no
//     prefix of the block can cross it, so checking nothing mid-block is
//     equivalent. Near the horizon blocks simply don't run and the
//     per-instruction path takes over. Traps may push the clock past the
//     horizon in either engine; the resume hook re-validates.
//
//   - Invalidation. Blocks copy their micro-ops, so the decode cache's
//     per-entry invalidation cannot reach them; instead each sbPage
//     carries an epoch, bumped by the invalidation paths (storeInvalidate,
//     dcInvalidate) whenever a write lands in the page's built-block
//     extent ([lo,hi] word indexes, reset on bump), and by the restore
//     walk's DropWord when it rewrites a word there. A block is valid
//     only while its epoch matches its page's. Mid-block, the epoch is
//     re-checked after every store and every memory op that ran through
//     executeFast — the only in-block
//     writers are the block's own stores and page-walk A/D updates, both
//     of which funnel through storeInvalidate — so self-modifying code
//     aborts to the dispatcher after the store commits, exactly where the
//     per-instruction engine would re-decode. Pages invalidated too often
//     (mixed code/data) stop building blocks entirely (sbMaxBumps) and
//     fall back to the per-entry-invalidated decode cache.
//
//   - Fetch-translation equivalence. "One translation per block entry" is
//     exact, not approximate: the block stays inside one page, and a data
//     access mid-block can evict or replace the code page's direct-mapped
//     TLB entry (the per-instruction engine would then charge a fetch
//     miss on the next instruction). Only a walk changes the TLB, so after
//     every memory op that ran through executeFast the code VPN's TLB slot
//     is revalidated (gen, VPN, PFN, user bit); on any change the block
//     aborts to the dispatcher, whose next fetch re-translates and charges
//     exactly what the per-instruction engine would. An inline hit leaves
//     the TLB as it was and needs no re-check.
//
//   - Observer composition. Blocks never run on a page with an armed
//     hardware breakpoint (the dispatcher checks before entry, chain
//     follows check the target page), so Step's per-slot PC compares are
//     preserved on armed pages. A store that could land in an armed
//     watch or spy page runs through executeFast itself, so watch/spy
//     semantics are the per-instruction engine's; the inline store arm
//     takes only stores outside the armed write envelope, whose per-slot
//     checks would miss anyway (loads are never observed).
//
//   - Chains are hints. A chain edge stores the successor block and the
//     virtual target it was established for; following one revalidates
//     everything the dispatcher would check — VA match, generation, epoch,
//     budget, horizon cap, armed pages, and (under paging) a real fetch
//     translation compared against the block's physical base. A stale edge
//     is severed and the dispatcher takes over; a translation performed
//     for a follow that then mismatches is handed back as pending fetch
//     cycles so the miss is still committed with the instruction that
//     fetches next, exactly once.
//
// Everything here is derived state: never serialized, rebuilt on demand,
// invisible to snapshots, gob traces, and the simulated timeline.

const (
	// sbMinLen is the minimum ops for a block to be worth dispatching;
	// shorter runs are cached as negative entries so the dispatcher does
	// not re-scan them on every visit.
	sbMinLen = 2
	// sbChainMin is the exit count after which a hot edge is linked.
	sbChainMin = 8
	// sbMaxBumps is the invalidation count after which a page is treated
	// as mixed code/data and stops building blocks (the per-entry decode
	// cache, which tolerates such pages, still serves it).
	sbMaxBumps = 64
)

// superblock is one predecoded basic block: a private copy of the decoded
// straight-line run starting at base, its worst-case cycle bound, and the
// profile-guided chain edge for its taken exit. n == 0 marks a cached
// negative (the words at base do not form a usable block).
type superblock struct {
	page  *sbPage
	epoch uint32 // page epoch at build; stale when != page.epoch
	base  uint32 // physical address of ops[0]
	n     uint32 // len(ops); 0 = negative entry
	body  uint32 // ops before the terminator (== n when term is false)
	term  bool   // last op is a branch/jump
	// noStore: the block's memory ops (if any) are all loads. While its
	// loads hit, such a block cannot trap, fire an observer, invalidate
	// anything, or touch the TLB, which is what licenses the batched
	// self-loop path in sbRun.
	noStore bool
	nload   uint32 // loads in the body (all its memory ops when noStore)
	// cycMax bounds the cycles a complete, non-trapping run of the block
	// can charge: base op cycles, a TLB-miss penalty for every memory op
	// (including a store's dirty-bit re-walk — at most one walk per op),
	// and the taken cost for the terminator.
	cycMax uint64
	// cycTaken is the exact cycle charge of one complete run that exits
	// via a taken terminator with every memory op hitting the TLB: each
	// op's charge is then data-independent. The batched self-loop, which
	// leaves on the first load that would not hit, is its only user.
	cycTaken uint64
	ops      []decoded

	// Native code (native.go): the block and self-loop entry points (0 =
	// none), the arena generation they belong to, the runs counted toward
	// nativeMin while the block has none, and the prefix tables sbRun
	// commits a native exit from.
	nat, natLoop uintptr
	natGen       uint32
	runs         uint32
	natCyc       []uint64
	natMem       []uint32

	// Chain edges for the terminator's taken exit and for every other
	// exit (fallthrough, untaken branch, page edge).
	taken, fall sbEdge
}

// sbEdge is a profile-guided chain edge out of a block: installed by the
// dispatcher once cnt exits have taken it (sbChainMin), valid only for the
// exact virtual target va. Pure hint — every follow revalidates.
type sbEdge struct {
	to  *superblock
	va  uint32
	cnt uint32
}

// sbPage indexes the superblocks of one physical page by starting word.
// The object is allocated once per page and never replaced, so chain edges
// from other pages can validate against its epoch forever.
type sbPage struct {
	epoch  uint32 // bumped by every invalidation hitting the extent
	bumps  uint32 // invalidation pressure since the last restore
	lo, hi uint32 // word-index extent examined by built blocks; lo>hi = none
	blocks [isa.PageSize / 4]*superblock
}

// SBStats are the superblock tier's derived telemetry counters — like
// BurstTicks, deterministic per run, never serialized.
type SBStats struct {
	// Built counts superblocks constructed (negative entries excluded).
	Built uint64
	// Runs counts block entries dispatched (including chained entries).
	Runs uint64
	// ChainHits counts block exits that followed a validated chain edge,
	// taken or fall.
	ChainHits uint64
	// ChainMisses counts block exits to the dispatcher along an edge: no
	// usable chain (cold edge, stale link, armed target page, remap) or a
	// budget/horizon refusal. SBStats derives it as ExitChainMiss plus
	// ExitCap; sbRun never counts it.
	ChainMisses uint64
	// Severed counts chain edges cut because the target went stale
	// (invalidation, generation flush, remap, polymorphic target).
	Severed uint64

	// MemInline counts block memory ops that ran inline: a TLB hit (or
	// paging off), aligned, inside RAM and, for a store, outside the armed
	// write envelope.
	MemInline uint64
	// MemFallback counts block memory ops that left the block through
	// executeFast: TLB misses, first writes to clean pages, faults, stores
	// into an armed page.
	MemFallback uint64

	// Exits count returns from a run of chained blocks to the dispatcher,
	// one reason each; they sum to the dispatches that entered a block.
	ExitChainMiss uint64 // taken exit without a usable chain edge
	ExitCap       uint64 // budget or horizon refused the next block
	ExitTrap      uint64 // a memory op or a chain-follow fetch trapped
	ExitAbandon   uint64 // a write hit the running block's page, or a walk moved the code page's TLB entry
	ExitLoadBail  uint64 // a batched loads-only self-loop reached a load that would not hit

	// Native tier (native.go). NativeBlocks counts blocks compiled and
	// NativeBytes the code emitted for them; NativeRuns counts block runs
	// (and self-loop iterations) that entered native code. The exits count
	// native runs handed back to sbRun before their end, by reason.
	NativeBlocks       uint64
	NativeBytes        uint64
	NativeRuns         uint64
	NativeExitTLB      uint64 // a memory op missed the TLB, lacked U or W, or stored to a clean page
	NativeExitEnvelope uint64 // a store could land in an armed watch or spy page
	NativeExitSMC      uint64 // a store would land in a built block's extent
	NativeExitRange    uint64 // a memory op was misaligned or outside RAM
}

// SBStats returns the superblock telemetry counters.
func (c *CPU) SBStats() SBStats {
	s := c.sbStat
	s.ChainMisses = s.ExitChainMiss + s.ExitCap
	return s
}

// String renders the counters on one line, with memory ops per block run
// derived, for the debug stubs' `monitor blocks`.
func (s SBStats) String() string {
	memPerRun := 0.0
	if s.Runs > 0 {
		memPerRun = float64(s.MemInline+s.MemFallback) / float64(s.Runs)
	}
	return fmt.Sprintf("superblocks: built=%d runs=%d chain_hits=%d chain_misses=%d severed=%d "+
		"mem_inline=%d mem_fallback=%d mem_per_run=%.2f "+
		"exit_chain_miss=%d exit_cap=%d exit_trap=%d exit_abandon=%d exit_load_bail=%d "+
		"native_blocks=%d native_bytes=%d native_runs=%d "+
		"native_exit_tlb=%d native_exit_envelope=%d native_exit_smc=%d native_exit_range=%d",
		s.Built, s.Runs, s.ChainHits, s.ChainMisses, s.Severed,
		s.MemInline, s.MemFallback, memPerRun,
		s.ExitChainMiss, s.ExitCap, s.ExitTrap, s.ExitAbandon, s.ExitLoadBail,
		s.NativeBlocks, s.NativeBytes, s.NativeRuns,
		s.NativeExitTLB, s.NativeExitEnvelope, s.NativeExitSMC, s.NativeExitRange)
}

// sbExit tells BurstRun's dispatcher how a block run ended.
type sbExit int

const (
	// sbNext: dispatch the next instruction from the loop top (clean block
	// exit, validation bail, or a fused trap — the dispatcher re-derives
	// paging mode and breakpoint caches either way).
	sbNext sbExit = iota
	// sbTrapped: an unfused trap surfaced; BurstRun returns BurstTrap.
	sbTrapped
)

// sbMemMax is the worst-case extra cycles a memory op's translation can
// charge: one page walk (a store to a clean page re-walks from a TLB hit,
// but walks at most once).
const sbMemMax = isa.CycTLBMiss

// opCycMax returns the worst-case non-trapping cycle charge of one
// predecoded op; for a non-memory op it is the exact charge.
func opCycMax(fn uint8) uint64 {
	if fn >= fnLW && fn <= fnSB {
		return opCyc(fn) + sbMemMax
	}
	return opCyc(fn)
}

// opCyc returns the cycle charge of one predecoded op that does not trap,
// for a memory op when it hits the TLB; a branch is priced taken.
func opCyc(fn uint8) uint64 {
	switch {
	case fn >= fnLW && fn <= fnLBU:
		return isa.CycLoad
	case fn >= fnSW && fn <= fnSB:
		return isa.CycStore
	case fn >= fnBEQ && fn <= fnBGEU:
		return isa.CycTaken
	case fn == fnJAL || fn == fnJALR:
		return isa.CycJump
	case fn == fnMUL:
		return isa.CycMUL
	case fn == fnDIVU || fn == fnREMU:
		return isa.CycDIV
	default:
		return isa.CycALU
	}
}

// sbLookup returns the valid superblock starting at physical address pa,
// building (and caching) one on demand. nil means no usable block: the
// run is shorter than sbMinLen, the page is under invalidation pressure,
// or pa is outside RAM — the dispatcher falls back per-instruction.
func (c *CPU) sbLookup(pa uint32) *superblock {
	pfn := pa >> isa.PageShift
	if pfn >= uint32(len(c.sbPages)) {
		return nil
	}
	sp := c.sbPages[pfn]
	if sp == nil {
		sp = &sbPage{lo: ^uint32(0)}
		c.sbPages[pfn] = sp
	}
	idx := (pa & isa.PageMask) >> 2
	if b := sp.blocks[idx]; b != nil && b.epoch == sp.epoch {
		if b.n == 0 {
			return nil
		}
		return b
	}
	if sp.bumps >= sbMaxBumps {
		return nil
	}
	return c.sbBuild(sp, pa, idx)
}

// sbBuild scans the straight-line run starting at word idx of pa's page
// and caches the result — a real block, or a negative entry when the run
// is too short. The page extent grows over every word examined, so a
// write that could change the cached decision bumps the epoch.
func (c *CPU) sbBuild(sp *sbPage, pa, idx uint32) *superblock {
	pfn := pa >> isa.PageShift
	pg := c.dcPages[pfn]
	if pg == nil {
		pg = &decPage{}
		c.dcPages[pfn] = pg
	}
	var ops []decoded
	var cycMax uint64
	i := idx
	end := i // last word index examined
	for {
		d := &pg.ins[i]
		if d.fn == fnUnset {
			w, ok := c.bus.Read32(pa&^uint32(isa.PageMask) | i<<2)
			if !ok {
				break
			}
			*d = decodeWord(w)
		}
		end = i
		if d.fn <= fnREMU { // slow, privileged or aluRare op: never in blocks
			break
		}
		ops = append(ops, *d)
		cycMax += opCycMax(d.fn)
		i++
		if d.fn >= fnBEQ { // terminator (branch/jump) included
			end = i - 1
			break
		}
		if i == uint32(len(pg.ins)) { // page edge
			end = i - 1
			break
		}
	}
	b := &superblock{page: sp, epoch: sp.epoch, base: pa}
	if len(ops) >= sbMinLen {
		b.n = uint32(len(ops))
		b.cycMax = cycMax
		b.ops = ops
		last := ops[len(ops)-1].fn
		b.term = last >= fnBEQ
		b.body = b.n
		if b.term {
			b.body--
		}
		b.noStore = true
		var bodyCyc uint64
		for j := uint32(0); j < b.body; j++ {
			fn := ops[j].fn
			if fn >= fnSW && fn <= fnSB {
				b.noStore = false
			} else if fn >= fnLW && fn <= fnLBU {
				b.nload++
			}
			bodyCyc += opCyc(fn)
		}
		if b.term {
			tc := uint64(isa.CycTaken)
			if last == fnJAL || last == fnJALR {
				tc = isa.CycJump
			}
			b.cycTaken = bodyCyc + tc
		}
		c.sbStat.Built++
	}
	sp.blocks[idx] = b
	if idx < sp.lo {
		sp.lo = idx
	}
	if end > sp.hi {
		sp.hi = end
	}
	if b.n == 0 {
		return nil
	}
	return b
}

// sbInvalidatePage kills every block on the page: bump the epoch (chain
// edges into the page validate against it), reset the extent, and count
// the pressure. The blocks array keeps its stale entries — lookups
// replace them on demand.
func sbInvalidatePage(sp *sbPage) {
	sp.epoch++
	sp.bumps++
	sp.lo, sp.hi = ^uint32(0), 0
}

// sbRun executes superblock b — entered at virtual address va with cyc
// pending entry-fetch cycles — and follows hot chain edges block→block.
// n0 ticks were already consumed by the burst; the caller guaranteed the
// first block fits the remaining budget and the horizon cap.
//
// Body ALU ops and the terminator evaluate through the shared evaluator
// (eval.go), inlined into the loops here: no per-op call, no per-op
// StepResult, and — crucially — no per-op c.PC store. That is where the
// tier's speed comes from. Memory ops run inline through the same
// evaluator's TLB-hit check and load/store arms when they hit the TLB (or
// paging is off), are aligned, lie in RAM and, for a store, fall outside
// the armed write envelope: their cycles stay batched like an ALU op's.
// Any other memory op commits the batch and runs through executeFast. A
// block with native code (native.go) runs it first and resumes this loop
// at the op the code handed back, if any. PC is dead inside a block:
// nothing observes it until a trap (executeFast gets its epc explicitly
// and diverters never read PC — the only monitor path that does,
// installGuestPTBR, is reached through a slow op, which blocks exclude)
// or the block's end, where the terminator arm (or the straight-line
// epilogue) materializes it.
//
// Returns the new tick count, the (possibly refreshed, if a trap fused)
// horizon, the exit disposition, and pending fetch cycles for the
// dispatcher to fold into its next instruction (nonzero only when a
// chain-follow translation succeeded but the chain was then refused — the
// TLB is warm, so the dispatcher's re-translation hits and charges zero).
func (c *CPU) sbRun(b *superblock, clk *uint64, cyc uint64, va uint32, n0, horizon, maxTicks uint64, resume BurstResume, pagingOff bool) (uint64, uint64, sbExit, uint64) {
	n := n0
	user := !pagingOff && c.CPL() == isa.CPLUser
	c.nat.user, c.nat.paging = user, !pagingOff
	// Self-loop edge validated by the general follow path below; see the
	// fast path at the exit edge.
	selfOK := false
	var selfTva uint32
newBlock:
	for {
		// Block-invariant setup: redone only when b changes (chain follow
		// to a different block); the self-loop paths skip it.
		ops := b.ops
		nops := b.n
		body := b.body
		term := b.term
		var td *decoded
		if term {
			td = &ops[body]
		}
		var fvpn, fpfn uint32
		if !pagingOff {
			fvpn = va >> isa.PageShift
			fpfn = b.base >> isa.PageShift
		}
		for {
			c.sbStat.Runs++
			acc := cyc   // uncommitted cycles (entry fetch + completed inline ops)
			var k uint64 // uncommitted op count
			i0 := uint32(0)
			if c.natLive(b) {
				// Native code runs the ops it can finish and hands the rest
				// back at op x, exactly where this loop would be after
				// running ops 0..x-1 inline.
				c.nat.va = va
				x, _ := nativeCall(b.nat, c)
				c.sbStat.NativeRuns++
				if i0 = x & 0xFFFF; i0 >= nops {
					acc += b.natCyc[i0]
					c.sbStat.MemInline += uint64(b.natMem[i0])
					k = uint64(nops)
					va += nops << 2
					if !term {
						c.PC = va
					}
					goto done // the terminator set PC
				}
				c.natCount(x)
				acc += b.natCyc[i0]
				c.sbStat.MemInline += uint64(b.natMem[i0])
				k = uint64(i0)
				va += i0 << 2
			}
			for i := i0; i < body; i++ {
				d := &ops[i]
				if d.fn < fnLW {
					// ALU op: cannot trap, cannot observe PC.
					c.setReg(int(d.rd), alu(d.fn, c.Regs[d.rs1], c.Regs[d.rs2]+d.imm))
					acc += isa.CycALU
					k++
					va += 4
					continue
				}
				// Memory op. A TLB hit has no side effect, so an inline
				// access leaves the code page's TLB slot as it was; only a
				// store can move the page epoch.
				ea := c.Regs[d.rs1] + d.imm
				pa, ok := ea, true
				if !pagingOff {
					pa, ok = c.tlbHit(ea, d.fn >= fnSW, user)
				}
				if ok {
					if d.fn <= fnLBU {
						var v uint32
						switch d.fn {
						case fnLW:
							v, ok = loadLW(c.ram, pa)
						case fnLH:
							v, ok = loadLH(c.ram, pa)
						case fnLHU:
							v, ok = loadLHU(c.ram, pa)
						case fnLB:
							v, ok = loadLB(c.ram, pa)
						default:
							v, ok = loadLBU(c.ram, pa)
						}
						if ok {
							c.setReg(int(d.rd), v)
							c.sbStat.MemInline++
							acc += isa.CycLoad
							k++
							va += 4
							continue
						}
					} else if !c.storeObserved(ea, 1) {
						// One byte is exact here: the envelope is page-rounded
						// and an aligned store stays inside one page.
						switch d.fn {
						case fnSW:
							ok = storeSW(c.ram, pa, c.Regs[d.rd])
						case fnSH:
							ok = storeSH(c.ram, pa, c.Regs[d.rd])
						default:
							ok = storeSB(c.ram, pa, c.Regs[d.rd])
						}
						if ok {
							c.storeInvalidate(pa)
							c.sbStat.MemInline++
							acc += isa.CycStore
							k++
							va += 4
							if b.epoch != b.page.epoch {
								// The store hit this page's blocks (SMC); the
								// per-instruction engine would re-decode the
								// next instruction.
								*clk += acc
								c.Stat.Instructions += k
								n += k
								c.PC = va
								c.sbStat.ExitAbandon++
								return n, horizon, sbNext, 0
							}
							continue
						}
					}
				}
				// Anything else can trap, walk the page tables or hit a
				// spy/watch observer: commit the batched bookkeeping so
				// diverters and hooks see the exact pre-instruction clock and
				// instruction count, and run the op through executeFast.
				*clk += acc
				c.Stat.Instructions += k
				n += k
				acc, k = 0, 0
				c.sbStat.MemFallback++
				res := c.executeFast(d, va)
				c.Stat.Instructions++
				*clk += res.Cycles
				n++
				if res.Trapped != isa.CauseNone {
					c.sbStat.ExitTrap++
					if h, ok := c.fuseTrap(resume); ok {
						return n, h, sbNext, 0
					}
					return n, horizon, sbTrapped, 0
				}
				if i+1 < nops {
					// The store (or a page walk's A/D update) may have hit
					// this page; the per-instruction engine would re-decode
					// the next instruction. A walk can also evict or replace
					// the code page's direct-mapped TLB entry; the
					// per-instruction engine would charge (or fault) the next
					// fetch accordingly.
					if b.epoch != b.page.epoch {
						c.sbStat.ExitAbandon++
						return n, horizon, sbNext, 0
					}
					if !pagingOff {
						e := &c.tlb[fvpn%tlbEntries]
						if e.Gen != c.tlbGen || e.VPN != fvpn || e.PFN != fpfn || (user && !e.U) {
							c.sbStat.ExitAbandon++
							return n, horizon, sbNext, 0
						}
					}
				}
				va += 4
			}
			if term {
				// Terminator: resolves and materializes PC.
				d := td
				switch d.fn {
				case fnJAL:
					c.setReg(int(d.rd), va+4)
					c.PC = va + d.imm
					acc += isa.CycJump
				case fnJALR:
					tgt := c.Regs[d.rs1] + d.imm
					c.setReg(int(d.rd), va+4)
					c.PC = tgt
					acc += isa.CycJump
				default:
					if cond(d.fn, c.Regs[d.rd], c.Regs[d.rs1]) {
						c.PC = va + d.imm
						acc += isa.CycTaken
					} else {
						c.PC = va + 4
						acc += isa.CycBranch
					}
				}
				k++
				va += 4
			} else {
				// Straight-line block (page edge or pre-slow end): materialize
				// the fallthrough PC the per-op engine would have left behind.
				c.PC = va
			}
		done:
			*clk += acc
			c.Stat.Instructions += k
			n += k

			// Exit edge: a taken branch/jump leaves by the taken chain edge
			// (or the self-loop paths below); anything else — fallthrough,
			// untaken branch, page edge, pre-slow end — by the fall edge.
			tva := c.PC
			e := &b.fall
			if term && tva != va {
				e = &b.taken
				// Self-loop fast path: a validated b→b edge (the classic hot
				// loop) needs only the budget and horizon re-checks per
				// iteration. Every other condition is iteration-invariant
				// inside one sbRun: gen and arming cannot change mid-burst
				// outside traps (which exit), the epoch is re-verified after
				// every store and the code page's TLB slot after every memory
				// op that left the block (an inline hit changes no TLB entry),
				// and a fixed-displacement terminator (selfTva is never set for
				// JALR) pins the target VA — so the entry fetch is a guaranteed
				// TLB hit charging zero cycles, exactly what the
				// per-instruction engine would pay.
				if selfOK && tva == selfTva {
					if !b.noStore {
						if uint64(nops) <= maxTicks-n && *clk+b.cycMax < horizon {
							c.sbStat.ChainHits++
							va = tva
							cyc = 0
							continue
						}
						c.sbStat.ExitCap++
						return n, horizon, sbNext, 0
					}
					// Batched self-loop. While its loads hit, nothing inside
					// the loop can trap, fire an observer hook, invalidate a
					// page, or touch the TLB, and every iteration's charge is
					// the constant cycTaken (the ops' costs are
					// data-independent). The per-entry budget and horizon
					// checks therefore reduce to a precomputed iteration cap:
					//   budget  — entry i needs n + i*nops <= maxTicks
					//   horizon — entry i needs clk + (i-1)*cycTaken + cycMax < horizon
					// which the per-instruction engine would evaluate one
					// iteration at a time with exactly these linear recurrences.
					// The first load that would not hit ends the loop on
					// itself (sbLoadBail).
					mb := (maxTicks - n) / uint64(nops)
					var mh uint64
					if h := horizon - *clk; h > b.cycMax {
						mh = (h-1-b.cycMax)/b.cycTaken + 1
					}
					m := mb
					if mh < m {
						m = mh
					}
					if m == 0 {
						c.sbStat.ExitCap++
						return n, horizon, sbNext, 0
					}
					it := uint64(0)
					taken := true
					if c.natLive(b) && b.natLoop != 0 {
						// The native self-loop, in slices short enough that the
						// goroutine reaches a preemption point every ~100 µs.
						c.nat.va = selfTva
						for {
							c.nat.loopCap = min(m-it, natLoopSlice)
							x, got := nativeCall(b.natLoop, c)
							it += got
							if x&0xFFFF < body {
								c.natCount(x)
								c.sbStat.NativeRuns += it + 1
								return n + c.sbLoadBail(b, clk, it, x&0xFFFF, selfTva), horizon, sbNext, 0
							}
							if taken = x == body+1; !taken || it == m {
								break
							}
						}
						c.sbStat.NativeRuns += it
						goto loopDone
					}
					for {
						for i := uint32(0); i < body; i++ {
							// Cycle charges are pre-summed in cycTaken.
							d := &ops[i]
							if d.fn < fnLW {
								c.setReg(int(d.rd), alu(d.fn, c.Regs[d.rs1], c.Regs[d.rs2]+d.imm))
								continue
							}
							ea := c.Regs[d.rs1] + d.imm
							pa, ok := ea, true
							if !pagingOff {
								pa, ok = c.tlbHit(ea, false, user)
							}
							var v uint32
							if ok {
								switch d.fn {
								case fnLW:
									v, ok = loadLW(c.ram, pa)
								case fnLH:
									v, ok = loadLH(c.ram, pa)
								case fnLHU:
									v, ok = loadLHU(c.ram, pa)
								case fnLB:
									v, ok = loadLB(c.ram, pa)
								default:
									v, ok = loadLBU(c.ram, pa)
								}
							}
							if !ok {
								return n + c.sbLoadBail(b, clk, it, i, selfTva), horizon, sbNext, 0
							}
							c.setReg(int(d.rd), v)
						}
						it++
						if td.fn == fnJAL {
							c.setReg(int(td.rd), selfTva+nops<<2)
						} else if taken = cond(td.fn, c.Regs[td.rd], c.Regs[td.rs1]); !taken {
							break
						}
						if it == m {
							break
						}
					}
				loopDone:
					c.Stat.Instructions += it * uint64(nops)
					n += it * uint64(nops)
					c.sbStat.Runs += it
					c.sbStat.ChainHits += it
					c.sbStat.MemInline += it * uint64(b.nload)
					if taken {
						// Cap exhausted mid-loop: state is exactly "just
						// completed a taken iteration"; the dispatcher's own
						// budget/horizon checks will refuse re-entry.
						c.PC = selfTva
						*clk += it * b.cycTaken
						c.sbStat.ExitCap++
						return n, horizon, sbNext, 0
					}
					// The loop fell out of its branch: leave by the fall edge.
					tva = selfTva + nops<<2
					c.PC = tva
					*clk += (it-1)*b.cycTaken + (b.cycTaken - isa.CycTaken + isa.CycBranch)
					e = &b.fall
				}
			}
			t := e.to
			if t == nil || e.va != tva || t.epoch != t.page.epoch || t.n == 0 {
				if t != nil {
					e.to = nil
					c.sbStat.Severed++
				}
				e.cnt++
				if e.cnt >= sbChainMin {
					// Hot edge: ask the dispatcher to link it to whatever block
					// it finds at the target.
					c.sbLink, c.sbLinkVA = e, tva
				}
				c.sbStat.ExitChainMiss++
				return n, horizon, sbNext, 0
			}
			if uint64(t.n) > maxTicks-n || *clk+t.cycMax >= horizon {
				c.sbStat.ExitCap++
				return n, horizon, sbNext, 0
			}
			if c.hwBreakAny && c.execPageArmed(tva>>isa.PageShift) {
				c.sbStat.ExitChainMiss++
				return n, horizon, sbNext, 0
			}
			if pagingOff {
				if t.base != tva {
					e.to = nil
					c.sbStat.Severed++
					c.sbStat.ExitChainMiss++
					return n, horizon, sbNext, 0
				}
				cyc = 0
			} else {
				// One fetch translation per block entry — the same one the
				// dispatcher would perform, charged with the block's first
				// instruction via cyc: the inline hit check, else translate.
				pa2, hit := c.tlbHit(tva, false, user)
				var cyc2 uint64
				if !hit {
					var cause uint32
					pa2, cause, cyc2 = c.translate(tva, false)
					if cause != isa.CauseNone {
						*clk += cyc2 + c.raise(cause, tva, tva)
						n++
						c.sbStat.ExitTrap++
						if h, ok := c.fuseTrap(resume); ok {
							return n, h, sbNext, 0
						}
						return n, horizon, sbTrapped, 0
					}
				}
				if pa2 != t.base {
					// Remapped target: sever and hand the already-charged
					// translation back to the dispatcher (its re-translation
					// hits the warm TLB for zero cycles; the budget check above
					// reserved the tick that will commit these cycles).
					e.to = nil
					c.sbStat.Severed++
					c.sbStat.ExitChainMiss++
					return n, horizon, sbNext, cyc2
				}
				if t.epoch != t.page.epoch {
					// The walk's A/D update can land in the target's own page
					// (page tables sharing a code page); the per-instruction
					// engine would re-decode, so fall back to it.
					c.sbStat.ExitChainMiss++
					return n, horizon, sbNext, cyc2
				}
				if *clk+cyc2+t.cycMax >= horizon {
					c.sbStat.ExitCap++
					return n, horizon, sbNext, cyc2
				}
				cyc = cyc2
			}
			c.sbStat.ChainHits++
			// Arm the self-loop fast path for b→b taken edges with a
			// fixed-target terminator (JALR targets are register-dependent
			// and must be revalidated every exit).
			selfOK = e == &b.taken && t == b && td.fn != fnJALR
			selfTva = tva
			b, va = t, tva
			continue newBlock
		}
	}
}

// sbLoadBail ends a batched loads-only self-loop of b, entered at selfTva,
// at body op i of the iteration after `it` completed ones: a load that
// would not hit (TLB miss, misaligned, outside RAM). It commits the
// completed iterations and the iteration's prefix, all of whose loads hit,
// and leaves PC on the load for the dispatcher, whose re-fetch of the code
// page hits the TLB as every iteration's did. Returns the ticks retired.
// Out of line: it runs once per batched loop at most.
func (c *CPU) sbLoadBail(b *superblock, clk *uint64, it uint64, i, selfTva uint32) uint64 {
	var pre, loads uint64
	for _, d := range b.ops[:i] {
		pre += opCyc(d.fn)
		if d.fn >= fnLW {
			loads++
		}
	}
	*clk += it*b.cycTaken + pre
	ticks := it*uint64(b.n) + uint64(i)
	c.Stat.Instructions += ticks
	c.PC = selfTva + i<<2
	// The iteration the load stopped was entered through the self edge
	// like every completed one.
	c.sbStat.Runs += it + 1
	c.sbStat.ChainHits += it + 1
	c.sbStat.MemInline += it*uint64(b.nload) + loads
	c.sbStat.ExitLoadBail++
	return ticks
}
