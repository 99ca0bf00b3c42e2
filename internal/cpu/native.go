package cpu

import "lvmm/internal/isa"

// Native block tier: hot superblocks compiled to host machine code.
//
// A superblock that has run nativeMin times is compiled (on amd64, see
// native_amd64.go) into code that does exactly what sbRun's inline arms do
// for its ALU ops, TLB-hit loads and stores, and terminator. The code
// never commits cycles, never traps and never calls back into Go: at the
// first op it cannot finish — a TLB miss or missing permission, a store
// into the armed write envelope or into a built block's extent on its
// page (SMC), a misaligned access or one outside RAM — it returns that
// op's index without having touched anything for it, and sbRun's
// interpreted loop resumes at that op. sbRun commits the cycles and
// memory-op counts of the ops before the exit from per-block prefix
// tables (natCyc, natMem), so every commit point, trap, observer and
// fallback stays the interpreter's. A loads-only block whose terminator
// targets its own first op also gets a native self-loop, the batched
// self-loop of sbRun with the same iteration cap and load bail.
//
// Native code lives and dies with its superblock (the same gen and epoch
// checks gate both) and with its arena generation (natGen), which a full
// arena bumps before it starts over. Everything here is derived state:
// never serialized, invisible to the timeline.

// nativeMin is the run count at which a superblock is compiled: 16–30
// blocks per machine reach it and hold over 99% of block-run
// instructions. SetNativeThreshold moves it for tests.
var nativeMin uint32 = 32

// SetNativeThreshold sets the run count at which superblocks compile to
// native code and returns the previous one: 1 compiles every block on its
// first run, 0 compiles none. It is a test hook for the differentials,
// which run each program both interpreted and with native blocks forced;
// set it before any machine runs, and restore it after. Builds without a
// native tier (every GOARCH but amd64) compile nothing whatever it says.
func SetNativeThreshold(n uint32) uint32 {
	old := nativeMin
	nativeMin = n
	return old
}

// natLoopSlice caps one native self-loop call, so a long batched loop
// returns to Go (a preemption point) every ~10^5 iterations.
const natLoopSlice = 1 << 17

// Native exit reasons, in bits 16 and up of a native call's exit value;
// the low 16 bits are the op index the interpreter resumes at. An index
// of n (untaken or fallthrough) or n+1 (taken) means the block completed.
const (
	natExitTLB      = 1 // TLB miss, missing U or W, or a clean page for a store
	natExitEnvelope = 2 // a store could land in an armed watch or spy page
	natExitSMC      = 3 // a store would land in a built block's extent
	natExitRange    = 4 // misaligned, or outside RAM
)

// nativeState is the CPU's native-tier state. The compiled code reads
// va, user, paging and loopCap at fixed offsets from the CPU pointer
// (next to the registers, RAM, TLB, envelope, coverage, dirty, decode and
// superblock tables it reaches the same way); sbRun sets them before each
// call.
type nativeState struct {
	va      uint32 // virtual address of the block's first op
	user    bool   // CPL is user: TLB hits must grant U
	paging  bool   // paging is on: addresses translate through the TLB
	loopCap uint64 // iteration cap of a native self-loop
	gen     uint32 // arena generation: code compiled under another is gone
	off     bool   // code memory released or unavailable: compile nothing
	arena   *codeArena
}

// natPrefix fills b's native prefix tables: natCyc[x] and natMem[x] are
// the cycles and the memory ops of the ops before exit x, each memory op
// at its TLB-hit price; x = n is a complete run that left untaken or by
// the fallthrough, x = n+1 one that left by a taken branch or a jump.
func natPrefix(b *superblock) {
	n := b.n
	b.natCyc = make([]uint64, n+2)
	b.natMem = make([]uint32, n+2)
	var cyc uint64
	var mem uint32
	for i := uint32(0); i < b.body; i++ {
		b.natCyc[i], b.natMem[i] = cyc, mem
		fn := b.ops[i].fn
		cyc += opCyc(fn)
		if fn >= fnLW && fn <= fnSB {
			mem++
		}
	}
	b.natCyc[b.body], b.natMem[b.body] = cyc, mem
	b.natCyc[n], b.natCyc[n+1] = cyc, cyc
	b.natMem[n], b.natMem[n+1] = mem, mem
	if b.term {
		b.natCyc[n] += isa.CycBranch
		if fn := b.ops[b.body].fn; fn == fnJAL || fn == fnJALR {
			b.natCyc[n+1] += isa.CycJump
		} else {
			b.natCyc[n+1] += isa.CycTaken
		}
	}
}

// natSelfLoop reports whether b may get a native self-loop: a loads-only
// block whose terminator is a branch or JAL back to its own first op. The
// target is static — the terminator's displacement is relative and the
// block lies in one page — so the loop is the batched self-loop sbRun
// takes for a validated b→b taken edge.
func natSelfLoop(b *superblock) bool {
	if !b.noStore || !b.term {
		return false
	}
	d := &b.ops[b.body]
	return d.fn != fnJALR && d.imm == -(b.body<<2)
}

// natCount files one native exit value's reason in the counters.
func (c *CPU) natCount(x uint32) {
	switch x >> 16 {
	case natExitTLB:
		c.sbStat.NativeExitTLB++
	case natExitEnvelope:
		c.sbStat.NativeExitEnvelope++
	case natExitSMC:
		c.sbStat.NativeExitSMC++
	case natExitRange:
		c.sbStat.NativeExitRange++
	}
}

// natLive reports whether b has native code of the current arena
// generation, compiling it first when b has just reached nativeMin runs.
// The test for live code inlines into sbRun; counting and compiling stay
// out of line.
func (c *CPU) natLive(b *superblock) bool {
	return b.nat != 0 && b.natGen == c.nat.gen || c.natWarm(b)
}

// natWarm counts a run of b without live native code and compiles b
// when the count reaches nativeMin.
func (c *CPU) natWarm(b *superblock) bool {
	if b.runs++; nativeMin == 0 || b.runs < nativeMin || c.nat.off {
		return false
	}
	b.runs = 0
	return c.natCompile(b)
}
