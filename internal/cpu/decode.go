package cpu

import "lvmm/internal/isa"

// Predecoded execution engine.
//
// The interpreter's per-instruction cost is dominated by refetching and
// redecoding the same words over and over: a tight guest loop pays a bus
// read, an opcode extraction, and four field extractions on every trip.
// The decode cache removes that: instruction words are decoded once into
// physical-page-indexed arrays of predecoded micro-ops, and BurstRun
// dispatches on the cached form, evaluating ALU results and branch
// conditions through the shared evaluator (eval.go).
//
// The cache is indexed by *physical* page, so remapping a virtual page to
// a different frame, a TLB flush, or a PTBR change needs no invalidation —
// every fetch still translates its PC through the TLB (which also
// preserves TLB-miss cycle accounting exactly), and cached decodes are a
// pure function of RAM contents. Physical indexing is what makes the
// monitor's constant world-switch TLB flushes free for the decode cache;
// the virtually-indexed alternative re-decodes the working set on every
// switch (measured ~3× slower on the Figure 3.1 macro benchmark). What
// does invalidate a page:
//
//   - any write into it: the predecoded tiers' stores and page-walk A/D
//     updates write RAM directly and call storeInvalidate, the one-slot
//     funnel; MOVS/STOS and debugger WriteVirt patches call dcInvalidate
//     directly (they write RAM in place); Step's stores, device DMA and
//     image loads arrive via the bus write-notify hook installed at
//     construction (bus.Write*/DMAWrite) or bus.NotifyWrite for in-place
//     fills;
//   - a snapshot restore that changes its bytes: the machine's restore
//     walk compares each word it rewrites on a page with decoded state
//     and drops (DropWord) only those that change, so the rest of the
//     cache stays warm across a restore. Warm or cold is invisible to
//     the timeline: decoding charges no cycles.
//
// Nothing in the cache affects architectural state or cycle accounting, so
// slow-path and fast-path execution are bit-identical; the differential
// tests in decode_test.go enforce this instruction by instruction.

// Micro-op kinds. fnUnset marks an undecoded slot; fnSlow routes the word
// through the full interpreter switch (execute) and ends a burst — it
// covers every op that can touch machine-level state (port I/O, PSR/CR
// writes, HLT, traps, string ops) plus undefined encodings.
const (
	fnUnset uint8 = iota
	// fnPrivOp marks the unconditionally privileged ops (CLI, STI, IRET,
	// HLT, MOVCR, MOVRC, TLBINV): below monitor level they always raise
	// CausePriv, so BurstRun delivers that trap straight from the
	// dispatcher — precomputed base cycles in imm, vaddr from raw —
	// without the interpreter round trip. At monitor level they take the
	// fnSlow route through execute.
	fnPrivOp
	fnSlow

	// Straight-line ops: cannot halt, cannot change PSR/CRs, cannot touch
	// ports, cannot arm observers. A burst may continue after them.
	//
	// aluRare's ops come first: straight-line, but never admitted into
	// superblocks, so fn <= fnREMU means "not a block op".
	fnSLT
	fnSLTU
	fnMUL
	fnDIVU
	fnREMU
	// alu's ops. An immediate form shares its register form's kind.
	fnADD
	fnSUB
	fnAND
	fnOR
	fnXOR
	fnSHL
	fnSHR
	fnSRA
	fnLUI
	fnLW
	fnLH
	fnLHU
	fnLB
	fnLBU
	fnSW
	fnSH
	fnSB
	fnBEQ
	fnBNE
	fnBLT
	fnBGE
	fnBLTU
	fnBGEU
	fnJAL
	fnJALR
)

// decoded is one predecoded instruction: the dispatch kind, pre-extracted
// register fields, and the immediate in its ready-to-use form (sign- or
// zero-extended, pre-shifted LUI value, pre-scaled branch/jump
// displacement including the +4; zero for register forms). raw keeps the
// original word for the fnSlow path and for trap vaddr reporting.
type decoded struct {
	fn  uint8
	rd  uint8
	rs1 uint8
	rs2 uint8
	imm uint32
	raw uint32
}

// decPage holds the predecoded instructions of one physical page, decoded
// lazily as they are first executed.
type decPage struct {
	ins [isa.PageSize / 4]decoded
}

// decodeWord predecodes one instruction word.
func decodeWord(w uint32) decoded {
	d := decoded{
		rd:  uint8(isa.Rd(w)),
		rs1: uint8(isa.Rs1(w)),
		rs2: uint8(isa.Rs2(w)),
		raw: w,
	}
	switch isa.Opcode(w) {
	case isa.OpADD:
		d.fn = fnADD
	case isa.OpSUB:
		d.fn = fnSUB
	case isa.OpAND:
		d.fn = fnAND
	case isa.OpOR:
		d.fn = fnOR
	case isa.OpXOR:
		d.fn = fnXOR
	case isa.OpSHL:
		d.fn = fnSHL
	case isa.OpSHR:
		d.fn = fnSHR
	case isa.OpSRA:
		d.fn = fnSRA
	case isa.OpSLT:
		d.fn = fnSLT
	case isa.OpSLTU:
		d.fn = fnSLTU
	case isa.OpMUL:
		d.fn = fnMUL
	case isa.OpDIVU:
		d.fn = fnDIVU
	case isa.OpREMU:
		d.fn = fnREMU
	// Immediate forms: the evaluator reads Regs[rs2] + imm, and the rs2
	// field bits belong to the immediate, so rs2 becomes r0.
	case isa.OpADDI:
		d.fn, d.rs2, d.imm = fnADD, 0, uint32(isa.Imm18(w))
	case isa.OpANDI:
		d.fn, d.rs2, d.imm = fnAND, 0, isa.Imm18U(w)
	case isa.OpORI:
		d.fn, d.rs2, d.imm = fnOR, 0, isa.Imm18U(w)
	case isa.OpXORI:
		d.fn, d.rs2, d.imm = fnXOR, 0, isa.Imm18U(w)
	case isa.OpSHLI:
		d.fn, d.rs2, d.imm = fnSHL, 0, isa.Imm18U(w)
	case isa.OpSHRI:
		d.fn, d.rs2, d.imm = fnSHR, 0, isa.Imm18U(w)
	case isa.OpSRAI:
		d.fn, d.rs2, d.imm = fnSRA, 0, isa.Imm18U(w)
	case isa.OpLUI:
		d.fn, d.rs2, d.imm = fnLUI, 0, isa.Imm18U(w)<<14
	case isa.OpLW:
		d.fn, d.imm = fnLW, uint32(isa.Imm18(w))
	case isa.OpLH:
		d.fn, d.imm = fnLH, uint32(isa.Imm18(w))
	case isa.OpLHU:
		d.fn, d.imm = fnLHU, uint32(isa.Imm18(w))
	case isa.OpLB:
		d.fn, d.imm = fnLB, uint32(isa.Imm18(w))
	case isa.OpLBU:
		d.fn, d.imm = fnLBU, uint32(isa.Imm18(w))
	case isa.OpSW:
		d.fn, d.imm = fnSW, uint32(isa.Imm18(w))
	case isa.OpSH:
		d.fn, d.imm = fnSH, uint32(isa.Imm18(w))
	case isa.OpSB:
		d.fn, d.imm = fnSB, uint32(isa.Imm18(w))
	case isa.OpBEQ:
		d.fn, d.imm = fnBEQ, uint32(isa.Imm18(w)*4+4)
	case isa.OpBNE:
		d.fn, d.imm = fnBNE, uint32(isa.Imm18(w)*4+4)
	case isa.OpBLT:
		d.fn, d.imm = fnBLT, uint32(isa.Imm18(w)*4+4)
	case isa.OpBGE:
		d.fn, d.imm = fnBGE, uint32(isa.Imm18(w)*4+4)
	case isa.OpBLTU:
		d.fn, d.imm = fnBLTU, uint32(isa.Imm18(w)*4+4)
	case isa.OpBGEU:
		d.fn, d.imm = fnBGEU, uint32(isa.Imm18(w)*4+4)
	case isa.OpJAL:
		d.fn, d.imm = fnJAL, uint32(isa.Imm22(w)*4+4)
	case isa.OpJALR:
		d.fn, d.imm = fnJALR, uint32(isa.Imm18(w))
	case isa.OpCLI, isa.OpSTI, isa.OpIRET, isa.OpHLT,
		isa.OpMOVCR, isa.OpMOVRC, isa.OpTLBINV:
		d.fn, d.imm = fnPrivOp, uint32(isa.OpCycles(isa.Opcode(w)))
	default:
		d.fn = fnSlow
	}
	return d
}

// decodeLookup returns the predecoded instruction at physical address pa,
// decoding (and allocating the page) on demand. nil means pa is not
// word-readable RAM — the caller raises the same bus error the slow-path
// fetch would.
func (c *CPU) decodeLookup(pa uint32) *decoded {
	pfn := pa >> isa.PageShift
	if pfn >= uint32(len(c.dcPages)) {
		return nil
	}
	pg := c.dcPages[pfn]
	if pg == nil {
		pg = &decPage{}
		c.dcPages[pfn] = pg
	}
	d := &pg.ins[(pa&isa.PageMask)>>2]
	if d.fn == fnUnset {
		w, ok := c.bus.Read32(pa)
		if !ok {
			return nil
		}
		*d = decodeWord(w)
	}
	return d
}

// dcInvalidate drops predecoded state covering [addr, addr+n). It is the
// bus write-notify hook, and is also called directly by the in-place RAM
// writers (MOVS/STOS, WriteVirt). Single stores and page-walk A/D updates
// take storeInvalidate directly.
//
// Small writes (a store-sized span inside one page) go through
// storeInvalidate word by word, keeping the page live: guest kernels
// routinely pack data into the same 4 KB pages as code, and dropping the
// whole page on every such store re-allocates and re-decodes it in a
// ping-pong that dominated the macro benchmarks. Bulk writes (DMA, string
// ops) drop whole pages.
func (c *CPU) dcInvalidate(addr, n uint32) {
	if n == 0 {
		return
	}
	first := addr >> isa.PageShift
	if first >= uint32(len(c.dcPages)) {
		return
	}
	if (addr&isa.PageMask)+n <= isa.PageSize && n <= 8 {
		for a := addr &^ 3; a < addr+n; a += 4 {
			c.storeInvalidate(a)
		}
		return
	}
	c.writeCov |= coverageBits(addr, n)
	if c.dirtyPages != nil {
		c.markDirty(addr, n)
	}
	last := (addr + n - 1) >> isa.PageShift
	if last >= uint32(len(c.dcPages)) {
		last = uint32(len(c.dcPages)) - 1
	}
	c.dcBulkGen++
	for p := first; p <= last; p++ {
		if c.dcPages[p] != nil {
			c.dcPages[p] = nil
		}
		if sp := c.sbPages[p]; sp != nil {
			sbInvalidatePage(sp)
		}
	}
}

// storeInvalidate is dcInvalidate for one write of at most one aligned
// word at physical address pa, which must lie in RAM: every store the
// predecoded tiers commit and every page-walk A/D update. Such a write
// touches one coverage block, one page and one decode slot, so the funnel
// sets one coverage bit and one dirty bit, clears one slot, and tests one
// superblock extent — no span arithmetic and no call through the bus hook.
func (c *CPU) storeInvalidate(pa uint32) {
	blk := pa >> CovShift
	if blk > 63 {
		blk = 63
	}
	c.writeCov |= 1 << blk
	pfn := pa >> isa.PageShift
	if c.dirtyPages != nil {
		c.dirtyPages[pfn>>6] |= 1 << (pfn & 63)
	}
	i := (pa & isa.PageMask) >> 2
	if pg := c.dcPages[pfn]; pg != nil {
		pg.ins[i].fn = fnUnset
	}
	if sp := c.sbPages[pfn]; sp != nil && sp.lo <= i && i <= sp.hi {
		sbInvalidatePage(sp)
	}
}

// BurstSafe reports whether the CPU may execute predecoded straight-line
// bursts. Debug observers no longer disqualify bursts wholesale: hardware
// breakpoints are checked page-granularly inside BurstRun, and watch/spy
// ranges gate only the stores that could land in them (see observers.go).
// What still forces the per-instruction interpreter is the trap flag — TF
// is a per-instruction observer by definition — and the explicit
// ForceSlowEngine knob. The machine checks BurstSafe once per burst entry
// and after every fused trap; every operation that could set TF mid-burst
// reaches the CPU through a trap or an fnSlow instruction, both of which
// re-check before the burst continues.
func (c *CPU) BurstSafe() bool {
	return !c.forceSlow && c.PSR&isa.PSRTF == 0
}

// BurstBreak explains why BurstRun stopped.
type BurstBreak int

const (
	// BurstHorizon: the clock reached the event horizon.
	BurstHorizon BurstBreak = iota
	// BurstBudget: the tick budget (poll countdown / stop-at-instruction
	// allowance) ran out.
	BurstBudget
	// BurstSync: a slow instruction (port I/O, PSR/CR writes, HLT, string
	// ops, undefined encodings) was executed inline through the full
	// interpreter and machine-level state may have changed — halt, idle,
	// pending interrupts, new events. The caller re-establishes its
	// invariants before the next burst. (With a resume hook the burst
	// re-validates and continues in place; BurstSync surfaces only when
	// the hook is nil or declines.)
	BurstSync
	// BurstTrap: the last counted tick raised a trap (including fetch
	// faults). The caller must check Wedged and re-establish invariants.
	BurstTrap
)

// BurstResume is the inline diverter hook consulted when a trap raised
// mid-burst was fully handled by the Diverter (DivertResume): it decides
// whether the burst may continue predecoded and, if so, supplies a fresh
// event horizon — the monitor's cycle charges consumed part of the old one,
// and its emulation may have scheduled new device events or made an
// interrupt deliverable. Returning ok=false surfaces BurstTrap as before.
// The returned horizon must exceed the committed clock.
type BurstResume func() (horizon uint64, ok bool)

// BurstRun executes predecoded instructions until the clock (committed
// through clk after every instruction, so trap diverters and scheduled
// work observe exact time) reaches horizon, maxTicks ticks were consumed,
// an instruction traps, or a slow instruction resynchronizes with the
// machine. Returns the tick count consumed (every Step-equivalent,
// including a final faulting one) and the break reason.
//
// Slow instructions (port I/O, PSR/CR writes, HLT, string ops, undefined
// encodings) are executed inline through the full interpreter; afterwards
// the resume hook re-validates the machine's burst preconditions and
// supplies a fresh horizon — its emulated device work may have scheduled
// events or made an interrupt deliverable — so I/O-dense guests stay in
// the burst. A nil or declining hook surfaces BurstSync instead, with the
// slow instruction already retired on this tick.
//
// A trap consumed by the Diverter with DivertResume does not end the burst
// when resume grants a fresh horizon: delivery, monitor emulation, and the
// return to guest execution fuse into one crossing (nil resume restores
// the old always-exit behaviour). All other traps — architectural delivery,
// debug stops, faults reflected into the guest — surface as BurstTrap.
//
// Above the per-instruction path sits the superblock tier (superblock.go):
// straight-line runs dispatch as predecoded blocks with one fetch
// translation and one lookup per block entry, and hot exits chain
// block→block. Blocks never run on armed exec pages and bail to this loop
// on any invalidation, so the tier is invisible to the timeline.
//
// Preconditions: BurstSafe holds and the CPU is neither halted nor
// wedged; the caller guarantees *clk < horizon and maxTicks ≥ 1 on entry.
// Architectural effects and cycle charges are bit-identical to an
// equivalent sequence of Step calls — including hardware breakpoints,
// which are checked page-granularly: the armed-page test (execPageArmed)
// is evaluated once per fetch-page crossing, and only instructions on an
// armed page pay Step's exact per-slot PC comparison. A hit disarms the
// slot one-shot and raises CauseBRK exactly as Step would, so the burst
// surfaces at the breakpoint instruction instead of never starting.
func (c *CPU) BurstRun(clk *uint64, horizon, maxTicks uint64, resume BurstResume) (ticks uint64, brk BurstBreak) {
	n := uint64(0)
	defer func() { c.burstTicks += n }()
	// PTBR can only change through fnSlow ops or trap handlers; both
	// re-derive the paging mode before the burst continues, so pagingOff is
	// loop-invariant between them. The same holds for the cached armed-page
	// test (bpVPN/bpArmed): observer slots only mutate through trap
	// diverters or slow ops mid-burst, so every fused resume resets the
	// cache to noVPN alongside the horizon and paging mode.
	pagingOff := !c.PagingEnabled()
	bpVPN, bpArmed := noVPN, false
	// A chain-link request left by a previous call is meaningless now.
	c.sbLink = nil
	// pend carries fetch-translation cycles already charged by a refused
	// superblock chain follow; they commit with the next instruction.
	var pend uint64
	// Register-cached decode page: fetches within one physical page skip
	// decodeLookup's dcPages load chain. The cache is sound while dcBulkGen
	// holds: it catches every drop of a page object (bulk invalidations),
	// and so also every path that could replace a live page object, since
	// replacement needs a nil slot. The in-place invalidations that remain
	// (aligned stores, page-walk A/D updates and the restore walk's
	// DropWord) clear entries to fnUnset, which the re-decode below
	// handles. cpg is non-nil whenever cpfn is a real page number.
	cpfn := ^uint32(0)
	var cpg *decPage
	var cbgen uint32
	for {
		if n >= maxTicks {
			return n, BurstBudget
		}
		instPC := c.PC
		if c.hwBreakAny {
			if vpn := instPC >> isa.PageShift; vpn != bpVPN {
				bpVPN, bpArmed = vpn, c.execPageArmed(vpn)
			}
			if bpArmed {
				hit := false
				for i, en := range c.hwBreakEn {
					if en && c.hwBreak[i] == instPC {
						// One-shot disarm, exactly like Step: the handler
						// can resume past it; debuggers re-arm after
						// stepping.
						c.hwBreakEn[i] = false
						c.recalcObservers()
						hit = true
						break
					}
				}
				if hit {
					*clk += pend + c.raise(isa.CauseBRK, instPC, instPC)
					pend = 0
					n++
					if h, ok := c.fuseTrap(resume); ok {
						horizon, pagingOff = h, !c.PagingEnabled()
						bpVPN, bpArmed = noVPN, false
						continue
					}
					return n, BurstTrap
				}
			}
		}
		if instPC&3 != 0 {
			*clk += pend + c.raise(isa.CauseAlign, instPC, instPC)
			pend = 0
			n++
			if h, ok := c.fuseTrap(resume); ok {
				horizon, pagingOff = h, !c.PagingEnabled()
				bpVPN, bpArmed = noVPN, false
				continue
			}
			return n, BurstTrap
		}
		pa := instPC
		cyc := pend
		pend = 0
		if !pagingOff {
			// Inline TLB fetch-hit path (translate's hit arm, zero cycles);
			// everything else takes the full translate.
			if hpa, ok := c.tlbHit(instPC, false, c.CPL() == isa.CPLUser); ok {
				pa = hpa
			} else {
				var cause uint32
				var tcyc uint64
				pa, cause, tcyc = c.translate(instPC, false)
				cyc += tcyc
				if cause != isa.CauseNone {
					*clk += cyc + c.raise(cause, instPC, instPC)
					n++
					if h, ok := c.fuseTrap(resume); ok {
						horizon, pagingOff = h, !c.PagingEnabled()
						bpVPN, bpArmed = noVPN, false
						continue
					}
					return n, BurstTrap
				}
			}
		}
		var d *decoded
		if pfn := pa >> isa.PageShift; pfn == cpfn && c.dcBulkGen == cbgen {
			d = &cpg.ins[(pa&isa.PageMask)>>2]
			if d.fn == fnUnset {
				if w, ok := c.bus.Read32(pa); ok {
					*d = decodeWord(w)
				} else {
					d = nil
				}
			}
		} else if d = c.decodeLookup(pa); d != nil {
			cpfn, cpg = pfn, c.dcPages[pfn]
			cbgen = c.dcBulkGen
		}
		if d == nil {
			*clk += cyc + c.raise(isa.CauseBusError, instPC, instPC)
			n++
			if h, ok := c.fuseTrap(resume); ok {
				horizon, pagingOff = h, !c.PagingEnabled()
				bpVPN, bpArmed = noVPN, false
				continue
			}
			return n, BurstTrap
		}
		// Superblock dispatch: only when the first op is a block op (a
		// block starting with a slow op, an aluRare op or a terminator can
		// never reach sbMinLen, so slow-op-dense code — the trap
		// benchmarks — never pays a block lookup), on an unarmed page, and
		// when the remaining budget and the horizon cap admit a full
		// worst-case block. A
		// pending chain-link request from a previous block's hot taken
		// exit is fulfilled here, where the target's block is known.
		if d.fn > fnREMU && d.fn < fnBEQ && !bpArmed {
			if b := c.sbLookup(pa); b != nil {
				if c.sbLink != nil {
					if c.sbLinkVA == instPC {
						c.sbLink.to, c.sbLink.va = b, instPC
					}
					c.sbLink = nil
				}
				if uint64(b.n) <= maxTicks-n && *clk+cyc+b.cycMax < horizon {
					var exit sbExit
					n, horizon, exit, pend = c.sbRun(b, clk, cyc, instPC, n, horizon, maxTicks, resume, pagingOff)
					if exit == sbTrapped {
						return n, BurstTrap
					}
					pagingOff = !c.PagingEnabled()
					bpVPN, bpArmed = noVPN, false
					if *clk >= horizon {
						return n, BurstHorizon
					}
					continue
				}
			}
		}
		if d.fn <= fnSlow {
			if d.fn == fnPrivOp && c.CPL() != isa.CPLMonitor {
				// Unconditionally privileged op below monitor level:
				// deliver CausePriv exactly as execute's trapStep would
				// (base cycles precomputed in imm, vaddr = raw word,
				// epc = instPC) without the interpreter round trip. The
				// divert branch of raise is open-coded — this is the
				// hottest trap site in monitor-dense guests, and the
				// fused-resume decision folds into the same branch.
				// Commit order matches raise: the diverter runs (and
				// charges monitor cycles) before the instruction's own
				// cyc+imm land on the clock, exactly as the interpreter
				// path orders it.
				c.Stat.Instructions++
				c.Stat.Traps++
				n++
				if c.Diverter != nil {
					if act := c.Diverter(isa.CausePriv, d.raw, instPC); act != DivertReflect {
						c.divertResumed = act == DivertResume
						*clk += cyc + uint64(d.imm)
						if act == DivertResume && resume != nil && !c.halted && !c.wedged {
							if h, ok := resume(); ok {
								horizon, pagingOff = h, !c.PagingEnabled()
								bpVPN, bpArmed = noVPN, false
								continue
							}
						}
						return n, BurstTrap
					}
				}
				c.divertResumed = false
				*clk += cyc + uint64(d.imm) + c.DeliverTrap(isa.CausePriv, d.raw, instPC)
				return n, BurstTrap
			}
			res := c.execute(instPC, d.raw)
			c.Stat.Instructions++
			*clk += res.Cycles + cyc
			n++
			if res.Trapped != isa.CauseNone {
				if h, ok := c.fuseTrap(resume); ok {
					horizon, pagingOff = h, !c.PagingEnabled()
					bpVPN, bpArmed = noVPN, false
					continue
				}
				return n, BurstTrap
			}
			if resume == nil {
				return n, BurstSync
			}
			h, ok := resume()
			if !ok {
				return n, BurstSync
			}
			horizon, pagingOff = h, !c.PagingEnabled()
			bpVPN, bpArmed = noVPN, false
			continue
		}
		if d.fn == fnJAL {
			// Unconditional jump: cannot trap and its effect is fully
			// static, so the executeFast call is skipped. Loop back-edges
			// in trap- and I/O-dense code are the hottest op left on the
			// per-instruction path (straight-line runs live in
			// superblocks).
			c.setReg(int(d.rd), instPC+4)
			c.PC = instPC + d.imm
			c.Stat.Instructions++
			*clk += uint64(isa.CycJump) + cyc
			n++
			if *clk >= horizon {
				return n, BurstHorizon
			}
			continue
		}
		res := c.executeFast(d, instPC)
		c.Stat.Instructions++
		*clk += res.Cycles + cyc
		n++
		if res.Trapped != isa.CauseNone {
			if h, ok := c.fuseTrap(resume); ok {
				horizon, pagingOff = h, !c.PagingEnabled()
				bpVPN, bpArmed = noVPN, false
				continue
			}
			return n, BurstTrap
		}
		if *clk >= horizon {
			return n, BurstHorizon
		}
	}
}

// fuseTrap decides whether a trap just raised mid-burst may be fused: the
// Diverter must have fully handled it (DivertResume) and the machine's
// resume hook must grant a fresh horizon. The horizon check is skipped on
// resume because the hook guarantees horizon > clock.
func (c *CPU) fuseTrap(resume BurstResume) (uint64, bool) {
	if !c.divertResumed || resume == nil || c.halted || c.wedged {
		return 0, false
	}
	return resume()
}

// executeFast runs one predecoded straight-line instruction other than JAL
// (which BurstRun executes inline): same results, trap causes and cycle
// charges as execute. ALU results, branch conditions and RAM accesses come
// from the shared evaluator; a store's invalidation takes the one-slot
// funnel (storeInvalidate). The store arms gate the slow path's spy/watch
// tail behind the armed write envelope (storeObserved): stores outside
// every armed page skip it — observably identical, since the per-slot
// intersection checks would have missed — and stores inside run the
// shared observedStore tail.
func (c *CPU) executeFast(d *decoded, instPC uint32) StepResult {
	switch {
	case d.fn <= fnREMU:
		c.setReg(int(d.rd), aluRare(d.fn, c.Regs[d.rs1], c.Regs[d.rs2]))
		c.PC = instPC + 4
		return StepResult{Cycles: opCycMax(d.fn)}
	case d.fn <= fnLUI:
		c.setReg(int(d.rd), alu(d.fn, c.Regs[d.rs1], c.Regs[d.rs2]+d.imm))
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycALU}
	case d.fn >= fnBEQ && d.fn <= fnBGEU:
		// d.imm is the taken displacement (offset*4+4), matching the slow
		// path's instPC + 4 + offset*4 modulo 2^32.
		if cond(d.fn, c.Regs[d.rd], c.Regs[d.rs1]) {
			c.PC = instPC + d.imm
			return StepResult{Cycles: isa.CycTaken}
		}
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycBranch}
	}
	switch d.fn {
	case fnLW, fnLH, fnLHU, fnLB, fnLBU:
		va := c.Regs[d.rs1] + d.imm
		if d.fn == fnLW && va&3 != 0 || d.fn <= fnLHU && va&1 != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, isa.CycLoad)
		}
		pa, cause, extra := c.translate(va, false)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycLoad+extra)
		}
		var v uint32
		var ok bool
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
		if !ok {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycLoad+extra)
		}
		c.setReg(int(d.rd), v)
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycLoad + extra}
	case fnSW, fnSH, fnSB:
		va := c.Regs[d.rs1] + d.imm
		size := uint32(1)
		if d.fn == fnSW {
			size = 4
		} else if d.fn == fnSH {
			size = 2
		}
		if va&(size-1) != 0 {
			return c.trapStep(isa.CauseAlign, va, instPC, isa.CycStore)
		}
		pa, cause, extra := c.translate(va, true)
		if cause != isa.CauseNone {
			return c.trapStep(cause, va, instPC, isa.CycStore+extra)
		}
		var ok bool
		switch d.fn {
		case fnSW:
			ok = storeSW(c.ram, pa, c.Regs[d.rd])
		case fnSH:
			ok = storeSH(c.ram, pa, c.Regs[d.rd])
		default:
			ok = storeSB(c.ram, pa, c.Regs[d.rd])
		}
		if !ok {
			return c.trapStep(isa.CauseBusError, va, instPC, isa.CycStore+extra)
		}
		c.storeInvalidate(pa)
		if c.storeObserved(va, size) {
			return c.observedStore(va, size, instPC, isa.CycStore+extra)
		}
		c.PC = instPC + 4
		return StepResult{Cycles: isa.CycStore + extra}
	}
	// fnJALR.
	target := c.Regs[d.rs1] + d.imm
	c.setReg(int(d.rd), instPC+4)
	c.PC = target
	return StepResult{Cycles: isa.CycJump}
}
