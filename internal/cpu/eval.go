package cpu

// The predecoded tiers' ISA semantics, in one place.
//
// executeFast and every arm of sbRun (block body, terminator, batched
// self-loop) compute register results and branch conditions through these
// three functions. execute, the raw-word interpreter behind Step, keeps its
// own independent switch, so the lockstep differentials compare two
// implementations rather than one with itself.
//
// The evaluator is split three ways so that each function stays under the
// compiler's inlining budget (CI checks -gcflags=-m): one switch over every
// op does not inline, and an out-of-line call per op costs the superblock
// tier measurably. The second operand is always Regs[rs2] + imm: decodeWord
// zeroes rs2 for immediate forms (r0 reads zero) and register forms keep
// imm at zero, so callers read it without branching on the form.

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
