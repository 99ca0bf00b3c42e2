package cpu

import (
	"encoding/binary"

	"lvmm/internal/isa"
)

// The predecoded tiers' ISA semantics, in one place.
//
// executeFast and every arm of sbRun (block body, terminator, batched
// self-loop) compute register results and branch conditions through alu,
// aluRare and cond, and reach memory through tlbHit and the width loads
// and stores below. execute, the raw-word interpreter behind Step, keeps
// its own independent switch, so the lockstep differentials compare two
// implementations rather than one with itself.
//
// Every function here stays under the compiler's inlining budget (CI
// checks -gcflags=-m): one switch over every op does not inline, and an
// out-of-line call per op costs the superblock tier measurably. The second
// operand is always Regs[rs2] + imm: decodeWord zeroes rs2 for immediate
// forms (r0 reads zero) and register forms keep imm at zero, so callers
// read it without branching on the form.

// alu evaluates ADD/SUB/AND/OR/XOR/SHL/SHR/SRA, whose immediate forms share
// their kinds, and LUI: every straight-line op charging isa.CycALU except
// SLT/SLTU, and the only ALU ops superblocks admit.
func alu(fn uint8, a, b uint32) uint32 {
	// ADD/ADDI dominates guest code: test it ahead of the switch.
	if fn == fnADD {
		return a + b
	}
	switch fn {
	case fnSUB:
		return a - b
	case fnAND:
		return a & b
	case fnOR:
		return a | b
	case fnXOR:
		return a ^ b
	case fnSHL:
		return a << (b & 31)
	case fnSHR:
		return a >> (b & 31)
	case fnSRA:
		return uint32(int32(a) >> (b & 31))
	}
	return b // fnLUI: rs2 is r0 and imm the pre-shifted value
}

// aluRare evaluates SLT/SLTU/MUL/DIVU/REMU (fnSLT..fnREMU, contiguous).
// Division by zero follows RISC-V: DIVU yields all ones, REMU the dividend.
func aluRare(fn uint8, a, b uint32) uint32 {
	switch fn {
	case fnSLT:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case fnSLTU:
		if a < b {
			return 1
		}
		return 0
	case fnMUL:
		return a * b
	case fnDIVU:
		if b == 0 {
			return 0xFFFFFFFF
		}
		return a / b
	}
	if b == 0 { // fnREMU
		return a
	}
	return a % b
}

// cond evaluates the branch condition of fnBEQ..fnBGEU on a = Regs[rd] and
// b = Regs[rs1] (branches carry their first operand in the rd field).
func cond(fn uint8, a, b uint32) bool {
	switch fn {
	case fnBEQ:
		return a == b
	case fnBNE:
		return a != b
	case fnBLT:
		return int32(a) < int32(b)
	case fnBGE:
		return int32(a) >= int32(b)
	case fnBLTU:
		return a < b
	}
	return a >= b // fnBGEU
}

// tlbHit is translate's hit arm: the physical address of va when the
// direct-mapped entry for its page is live (gen and VPN match), grants a
// user access when user is set, and for a write is writable with the
// dirty bit already set. A hit has no side effect — no cycles, no A/D
// update, no trap — so a caller may take it inline and leave everything
// else (misses, protection faults, a first write to a clean page) to
// translate. Only meaningful with paging on.
func (c *CPU) tlbHit(va uint32, write, user bool) (uint32, bool) {
	vpn := va >> isa.PageShift
	e := &c.tlb[vpn%tlbEntries]
	if e.Gen != c.tlbGen || e.VPN != vpn || user && !e.U || write && !(e.W && e.D) {
		return 0, false
	}
	return e.PFN<<isa.PageShift | va&isa.PageMask, true
}

// The load and store arms, one per memory op: each accesses RAM at a
// physical address, little-endian, with the op's width and (for loads) its
// extension. ok is false unless the access is naturally aligned and lies
// entirely inside ram. The predecoded tiers check alignment before
// translating (an alignment trap precedes a page fault), so for executeFast
// false means a bus error; a superblock's inline arm hands any false to
// executeFast, which raises whichever trap applies. pa and its virtual
// address share the page offset, so alignment is the same on either.

func loadLW(ram []byte, pa uint32) (uint32, bool) {
	if pa&3 != 0 || uint64(pa)+4 > uint64(len(ram)) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(ram[pa:]), true
}

func loadLH(ram []byte, pa uint32) (uint32, bool) {
	if pa&1 != 0 || uint64(pa)+2 > uint64(len(ram)) {
		return 0, false
	}
	return uint32(int32(int16(binary.LittleEndian.Uint16(ram[pa:])))), true
}

func loadLHU(ram []byte, pa uint32) (uint32, bool) {
	if pa&1 != 0 || uint64(pa)+2 > uint64(len(ram)) {
		return 0, false
	}
	return uint32(binary.LittleEndian.Uint16(ram[pa:])), true
}

func loadLB(ram []byte, pa uint32) (uint32, bool) {
	if uint64(pa) >= uint64(len(ram)) {
		return 0, false
	}
	return uint32(int32(int8(ram[pa]))), true
}

func loadLBU(ram []byte, pa uint32) (uint32, bool) {
	if uint64(pa) >= uint64(len(ram)) {
		return 0, false
	}
	return uint32(ram[pa]), true
}

func storeSW(ram []byte, pa, v uint32) bool {
	if pa&3 != 0 || uint64(pa)+4 > uint64(len(ram)) {
		return false
	}
	binary.LittleEndian.PutUint32(ram[pa:], v)
	return true
}

func storeSH(ram []byte, pa, v uint32) bool {
	if pa&1 != 0 || uint64(pa)+2 > uint64(len(ram)) {
		return false
	}
	binary.LittleEndian.PutUint16(ram[pa:], uint16(v))
	return true
}

func storeSB(ram []byte, pa, v uint32) bool {
	if uint64(pa) >= uint64(len(ram)) {
		return false
	}
	ram[pa] = byte(v)
	return true
}
