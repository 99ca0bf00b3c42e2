//go:build amd64

package cpu

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"syscall"
	"unsafe"

	"lvmm/internal/isa"
)

// The amd64 native block tier: an emitter from predecoded superblocks to
// x86-64 code, the code arena it runs from, and nativeCall, the assembly
// trampoline (native_amd64.s) sbRun calls it through.
//
// Register use. DI holds the *CPU for the whole call, and every piece of
// state is reached at a fixed offset from it (taken from unsafe.Offsetof
// below; TestNativeOffsets pins them), never through the goroutine stack,
// which moves. SI holds the RAM base; AX, BX, CX and R11 are scratch; a
// self-loop counts its iterations in R13. The rest — DX, R8, R9, R10,
// R12 and, outside a self-loop, R13 — cache the guest registers the code
// uses most: loaded at entry, written back by every return. SP is touched
// only by the CALL and RET that bracket the code; BP, R14 and R15 are
// never touched. The code writes guest registers, PC, RAM bytes, the
// coverage and dirty bitmaps and decode slots — never a Go pointer, so no
// write barrier is ever owed.

// nativeCall runs compiled code with DI = c and returns its exit value
// (AX) and, for a self-loop, its iteration count (R13).
func nativeCall(code uintptr, c *CPU) (exit uint32, iters uint64)

// Offsets of the state the compiled code reaches from the *CPU.
const (
	offRegs     = unsafe.Offsetof(CPU{}.Regs)
	offPC       = unsafe.Offsetof(CPU{}.PC)
	offRAM      = unsafe.Offsetof(CPU{}.ram)
	offTLB      = unsafe.Offsetof(CPU{}.tlb)
	offTLBGen   = unsafe.Offsetof(CPU{}.tlbGen)
	offArmLo    = unsafe.Offsetof(CPU{}.writeArmLo)
	offArmHi    = unsafe.Offsetof(CPU{}.writeArmHi)
	offWriteCov = unsafe.Offsetof(CPU{}.writeCov)
	offDirty    = unsafe.Offsetof(CPU{}.dirtyPages)
	offDCPages  = unsafe.Offsetof(CPU{}.dcPages)
	offSBPages  = unsafe.Offsetof(CPU{}.sbPages)
	offNatVA    = unsafe.Offsetof(CPU{}.nat) + unsafe.Offsetof(nativeState{}.va)
	offNatUser  = unsafe.Offsetof(CPU{}.nat) + unsafe.Offsetof(nativeState{}.user)
	offNatPage  = unsafe.Offsetof(CPU{}.nat) + unsafe.Offsetof(nativeState{}.paging)
	offNatCap   = unsafe.Offsetof(CPU{}.nat) + unsafe.Offsetof(nativeState{}.loopCap)

	offTLBVPN  = unsafe.Offsetof(TLBEntry{}.VPN)
	offTLBPFN  = unsafe.Offsetof(TLBEntry{}.PFN)
	offTLBW    = unsafe.Offsetof(TLBEntry{}.W)
	offTLBU    = unsafe.Offsetof(TLBEntry{}.U)
	offTLBD    = unsafe.Offsetof(TLBEntry{}.D)
	sizeTLB    = unsafe.Sizeof(TLBEntry{})
	offSPLo    = unsafe.Offsetof(sbPage{}.lo)
	offSPHi    = unsafe.Offsetof(sbPage{}.hi)
	offDPIns   = unsafe.Offsetof(decPage{}.ins)
	sizeDecode = unsafe.Sizeof(decoded{})
)

// The emitter scales indexes by shifts and a multiply by three, so the
// layouts it assumes are fixed at compile time: a 16-byte TLB entry and a
// 12-byte decode slot (array-size constants go negative otherwise).
var (
	_ [sizeTLB - 16]struct{}
	_ [16 - sizeTLB]struct{}
	_ [sizeDecode - 12]struct{}
	_ [12 - sizeDecode]struct{}
)

// Host registers.
const (
	rAX = 0
	rCX = 1
	rDX = 2
	rBX = 3
	rSI = 6
	rDI = 7
	r8  = 8
	r9  = 9
	r10 = 10
	r11 = 11
	r12 = 12
	r13 = 13
)

// mem is a memory operand [base + index<<scale + disp]; index < 0 means
// none.
type mem struct {
	base, index int
	scale       byte
	disp        int32
}

func at(base int, disp uintptr) mem { return mem{base: base, index: -1, disp: int32(disp)} }

// asmBuf accumulates the code of one block. Every memory operand takes
// the disp32 form, so an encoding never depends on the displacement.
type asmBuf struct {
	b []byte
	// exits are the jumps to return stubs still to emit.
	exits []exitJump
	// host maps a guest register to the host register caching it (0 =
	// none: no cache uses AX); wrote marks the cached ones the code
	// writes, which every return stores back.
	host  [16]int
	wrote [16]bool
}

// cachePool are the host registers free to cache guest registers, most
// used guest register first; a self-loop keeps R13 for its count.
var cachePool = []int{rDX, r8, r9, r10, r12, r13}

// cache maps the guest registers b's code reads or writes (r0 aside: it
// reads from the register file like any uncached register) to host
// registers, most used first, as far as the pool goes.
func (a *asmBuf) cache(b *superblock, pool []int) {
	a.host, a.wrote = [16]int{}, [16]bool{}
	var uses [16]int
	for i := range b.ops {
		d := &b.ops[i]
		uses[d.rd]++
		uses[d.rs1]++
		if d.fn < fnLW {
			uses[d.rs2]++
		}
	}
	uses[0] = 0
	for _, h := range pool {
		best := 0
		for r := 1; r < 16; r++ {
			if uses[r] > uses[best] {
				best = r
			}
		}
		if best == 0 {
			break
		}
		a.host[best], uses[best] = h, 0
	}
}

// load emits mov dst, Regs[r].
func (a *asmBuf) load(dst int, r uint8) {
	if h := a.host[r]; h != 0 {
		a.r(false, opMovStore, h, dst)
	} else {
		a.m(false, opMovLoad, dst, reg(r))
	}
}

// store emits mov Regs[r], src (r != 0).
func (a *asmBuf) store(r uint8, src int) {
	if h := a.host[r]; h != 0 {
		a.r(false, opMovStore, src, h)
		a.wrote[r] = true
	} else {
		a.m(false, opMovStore, src, reg(r))
	}
}

// cmpReg emits cmp dst, Regs[r].
func (a *asmBuf) cmpReg(dst int, r uint8) {
	if h := a.host[r]; h != 0 {
		a.r(false, opCmpRM, h, dst)
	} else {
		a.m(false, opCmpR, dst, reg(r))
	}
}

// enter emits the loads of the cached registers.
func (a *asmBuf) enter() {
	for r, h := range a.host {
		if h != 0 {
			a.m(false, opMovLoad, h, reg(uint8(r)))
		}
	}
}

// writeBack emits the stores of the cached registers the code writes.
func (a *asmBuf) writeBack() {
	for r, h := range a.host {
		if a.wrote[r] {
			a.m(false, opMovStore, h, reg(uint8(r)))
		}
	}
}

// exitJump is a rel32 field at pos that jumps to the stub returning x.
type exitJump struct {
	x   uint32
	pos int
}

func (a *asmBuf) byte1(v ...byte) { a.b = append(a.b, v...) }
func (a *asmBuf) imm32(v uint32)  { a.b = binary.LittleEndian.AppendUint32(a.b, v) }

func (a *asmBuf) rex(w bool, reg, index, base int) {
	v := byte(0x40)
	if w {
		v |= 8
	}
	if reg&8 != 0 {
		v |= 4
	}
	if index > 0 && index&8 != 0 {
		v |= 2
	}
	if base&8 != 0 {
		v |= 1
	}
	if v != 0x40 {
		a.b = append(a.b, v)
	}
}

// m emits opc with a ModRM reg field of reg (a register or an opcode
// extension) and memory operand m.
func (a *asmBuf) m(w bool, opc []byte, reg int, m mem) {
	a.rex(w, reg, m.index, m.base)
	a.b = append(a.b, opc...)
	if m.index >= 0 || m.base&7 == 4 {
		ix := byte(4)
		if m.index >= 0 {
			ix = byte(m.index & 7)
		}
		a.b = append(a.b, 0x84|byte(reg&7)<<3, m.scale<<6|ix<<3|byte(m.base&7))
	} else {
		a.b = append(a.b, 0x80|byte(reg&7)<<3|byte(m.base&7))
	}
	a.imm32(uint32(m.disp))
}

// r emits opc with ModRM reg field reg and register operand rm.
func (a *asmBuf) r(w bool, opc []byte, reg, rm int) {
	a.rex(w, reg, -1, rm)
	a.b = append(a.b, opc...)
	a.b = append(a.b, 0xC0|byte(reg&7)<<3|byte(rm&7))
}

var (
	opMovLoad  = []byte{0x8B} // mov r, r/m
	opMovStore = []byte{0x89} // mov r/m, r
	opCmpRM    = []byte{0x39} // cmp r/m, r
	opCmpR     = []byte{0x3B} // cmp r, r/m
	opCmp8     = []byte{0x38} // cmp r/m8, r8
	opGrp1     = []byte{0x81} // add/or/and/sub/xor/cmp r/m, imm32
	opGrp1b    = []byte{0x80} // the same on r/m8, imm8
	opShift    = []byte{0xD3} // shl/shr/sar r/m, cl
	opShiftI   = []byte{0xC1} // shl/shr/sar r/m, imm8
	opTest     = []byte{0x85} // test r/m, r
	opLea      = []byte{0x8D}
	opBts      = []byte{0x0F, 0xAB}
	opCmova    = []byte{0x0F, 0x47}
	opMov8I    = []byte{0xC6} // mov r/m8, imm8
	opIncDec   = []byte{0xFF}
)

// ModRM opcode extensions: group 1 (add/and/cmp with an immediate) and
// group 2 (shifts).
const (
	extAdd = 0
	extAnd = 4
	extCmp = 7
	extShl = 4
	extShr = 5
	extSar = 7
)

// aluRI emits op r32, imm32 (group-1 extension ext).
func (a *asmBuf) aluRI(ext, reg int, v uint32) {
	a.r(false, opGrp1, ext, reg)
	a.imm32(v)
}

// shift emits shl/shr r32, n (group-2 extension ext).
func (a *asmBuf) shift(ext, reg int, n byte) {
	a.r(false, opShiftI, ext, reg)
	a.byte1(n)
}

// movRI emits mov r32, imm32.
func (a *asmBuf) movRI(reg int, v uint32) {
	a.rex(false, 0, -1, reg)
	a.byte1(0xB8 | byte(reg&7))
	a.imm32(v)
}

// Condition codes for jcc.
const (
	ccB  = 0x2
	ccAE = 0x3
	ccE  = 0x4
	ccNE = 0x5
	ccBE = 0x6
	ccA  = 0x7
	ccL  = 0xC
	ccGE = 0xD
)

// jcc emits a rel32 conditional jump and returns the rel32 field's
// position for patch.
func (a *asmBuf) jcc(cc byte) int {
	a.byte1(0x0F, 0x80|cc)
	a.imm32(0)
	return len(a.b) - 4
}

func (a *asmBuf) jmp() int {
	a.byte1(0xE9)
	a.imm32(0)
	return len(a.b) - 4
}

// patch points the rel32 field at pos to the current position.
func (a *asmBuf) patch(pos int) { a.patchTo(pos, len(a.b)) }

func (a *asmBuf) patchTo(pos, target int) {
	binary.LittleEndian.PutUint32(a.b[pos:], uint32(int32(target-(pos+4))))
}

// exit emits a jcc to the stub returning x.
func (a *asmBuf) exit(cc byte, x uint32) {
	a.exits = append(a.exits, exitJump{x, a.jcc(cc)})
}

// ret emits the write-back of the cached registers, mov eax, x, ret.
// Every return writes back every cached register the code writes: one
// the ops before the return did not write yet still holds its entry
// value.
func (a *asmBuf) ret(x uint32) {
	a.writeBack()
	a.movRI(rAX, x)
	a.byte1(0xC3)
}

// stubs emits one return stub per exit value, in ascending order, and
// patches the jumps to it.
func (a *asmBuf) stubs() {
	slices.SortStableFunc(a.exits, func(p, q exitJump) int { return cmp.Compare(p.x, q.x) })
	for i, e := range a.exits {
		a.patch(e.pos)
		if i+1 == len(a.exits) || a.exits[i+1].x != e.x {
			a.ret(e.x)
		}
	}
	a.exits = a.exits[:0]
}

func reg(r uint8) mem { return at(rDI, offRegs+4*uintptr(r)) }

// prologue loads the RAM base and the cached guest registers.
func (a *asmBuf) prologue() {
	a.m(true, opMovLoad, rSI, at(rDI, offRAM))
	a.enter()
}

// alu emits a straight-line ALU op: rd = alu(fn, Regs[rs1], Regs[rs2]+imm).
func (a *asmBuf) alu(d *decoded) {
	if d.rd == 0 {
		return // r0 discards the result, and the op has no other effect
	}
	a.load(rCX, d.rs2)
	if d.imm != 0 {
		a.aluRI(extAdd, rCX, d.imm)
	}
	if d.fn == fnLUI {
		a.store(d.rd, rCX)
		return
	}
	a.load(rAX, d.rs1)
	switch d.fn {
	case fnADD:
		a.r(false, []byte{0x01}, rCX, rAX)
	case fnSUB:
		a.r(false, []byte{0x29}, rCX, rAX)
	case fnAND:
		a.r(false, []byte{0x21}, rCX, rAX)
	case fnOR:
		a.r(false, []byte{0x09}, rCX, rAX)
	case fnXOR:
		a.r(false, []byte{0x31}, rCX, rAX)
	case fnSHL:
		a.r(false, opShift, extShl, rAX) // 32-bit shifts mask the count to 5 bits
	case fnSHR:
		a.r(false, opShift, extShr, rAX)
	default: // fnSRA
		a.r(false, opShift, extSar, rAX)
	}
	a.store(d.rd, rAX)
}

// memOp emits load or store op i: the inline arm's checks, each failing
// to exit i with its reason, then the access and, for a store,
// storeInvalidate's bookkeeping.
func (a *asmBuf) memOp(d *decoded, i uint32) {
	store := d.fn >= fnSW
	// EAX = ea (RAX zero-extended).
	a.load(rAX, d.rs1)
	if d.imm != 0 {
		a.aluRI(extAdd, rAX, d.imm)
	}
	if store {
		// storeObserved(ea, 1): ea < writeArmHi && ea+1 > writeArmLo.
		a.m(true, opCmpR, rAX, at(rDI, offArmHi))
		ok := a.jcc(ccAE)
		a.m(true, opLea, r11, at(rAX, 1))
		a.m(true, opCmpR, r11, at(rDI, offArmLo))
		a.exit(ccA, i|natExitEnvelope<<16)
		a.patch(ok)
	}
	// ECX = pa: ea itself with paging off, else tlbHit's translation.
	a.r(false, opMovStore, rAX, rCX)
	a.m(false, opGrp1b, extCmp, at(rDI, offNatPage))
	a.byte1(0)
	phys := a.jcc(ccE)
	a.r(false, opMovStore, rAX, r11)
	a.shift(extShr, r11, isa.PageShift) // R11 = vpn
	a.r(false, opMovStore, r11, rBX)
	a.aluRI(extAnd, rBX, tlbEntries-1)
	a.shift(extShl, rBX, 4) // RBX = slot offset
	e := func(off uintptr) mem { return mem{base: rDI, index: rBX, disp: int32(offTLB + off)} }
	a.m(false, opMovLoad, rAX, at(rDI, offTLBGen))
	a.m(false, opCmpRM, rAX, e(0))
	a.exit(ccNE, i|natExitTLB<<16)
	a.m(false, opCmpRM, r11, e(offTLBVPN))
	a.exit(ccNE, i|natExitTLB<<16)
	a.m(false, []byte{0x0F, 0xB6}, rAX, at(rDI, offNatUser))
	a.m(false, opCmp8, rAX, e(offTLBU)) // U - user: below means a user access to a supervisor page
	a.exit(ccB, i|natExitTLB<<16)
	if store {
		a.m(false, opGrp1b, extCmp, e(offTLBW))
		a.byte1(0)
		a.exit(ccE, i|natExitTLB<<16)
		a.m(false, opGrp1b, extCmp, e(offTLBD))
		a.byte1(0)
		a.exit(ccE, i|natExitTLB<<16)
	}
	a.r(false, opMovStore, rCX, r11)
	a.aluRI(extAnd, r11, 0xFFF)
	a.m(false, opMovLoad, rCX, e(offTLBPFN))
	a.shift(extShl, rCX, isa.PageShift)
	a.r(false, []byte{0x09}, r11, rCX) // or ecx, r11d
	a.patch(phys)

	size := uint32(1)
	switch d.fn {
	case fnLW, fnSW:
		size = 4
	case fnLH, fnLHU, fnSH:
		size = 2
	}
	if size > 1 {
		a.r(false, []byte{0xF7}, 0, rCX) // test ecx, size-1
		a.imm32(size - 1)
		a.exit(ccNE, i|natExitRange<<16)
	}
	a.m(true, opLea, r11, at(rCX, uintptr(size)))
	a.m(true, opCmpR, r11, at(rDI, offRAM+8)) // against len(RAM)
	a.exit(ccA, i|natExitRange<<16)

	ram := mem{base: rSI, index: rCX}
	if !store {
		switch d.fn {
		case fnLW:
			a.m(false, opMovLoad, rAX, ram)
		case fnLH:
			a.m(false, []byte{0x0F, 0xBF}, rAX, ram)
		case fnLHU:
			a.m(false, []byte{0x0F, 0xB7}, rAX, ram)
		case fnLB:
			a.m(false, []byte{0x0F, 0xBE}, rAX, ram)
		default:
			a.m(false, []byte{0x0F, 0xB6}, rAX, ram)
		}
		if d.rd != 0 {
			a.store(d.rd, rAX)
		}
		return
	}

	// SMC: a store into a built block's extent on its page leaves before
	// it lands; the interpreter's arm stores, bumps the epoch, abandons.
	a.r(false, opMovStore, rCX, r11)
	a.shift(extShr, r11, isa.PageShift) // R11 = pfn, inside the tables: pa+size <= len(RAM)
	a.m(true, opMovLoad, rBX, at(rDI, offSBPages))
	a.m(true, opMovLoad, rBX, mem{base: rBX, index: r11, scale: 3})
	a.r(true, opTest, rBX, rBX)
	noSP := a.jcc(ccE)
	a.r(false, opMovStore, rCX, rAX)
	a.aluRI(extAnd, rAX, 0xFFF)
	a.shift(extShr, rAX, 2) // EAX = word index
	a.m(false, opCmpR, rAX, at(rBX, offSPLo))
	below := a.jcc(ccB)
	a.m(false, opCmpR, rAX, at(rBX, offSPHi))
	a.exit(ccBE, i|natExitSMC<<16)
	a.patch(noSP)
	a.patch(below)

	a.load(rAX, d.rd)
	switch d.fn {
	case fnSW:
		a.m(false, opMovStore, rAX, ram)
	case fnSH:
		a.byte1(0x66)
		a.m(false, opMovStore, rAX, ram)
	default:
		a.m(false, []byte{0x88}, rAX, ram)
	}

	// storeInvalidate(pa): coverage bit min(pa>>CovShift, 63), ...
	a.r(false, opMovStore, rCX, rAX)
	a.shift(extShr, rAX, CovShift)
	a.movRI(rBX, 63)
	a.r(false, opCmpRM, rBX, rAX)
	a.r(false, opCmova, rAX, rBX)
	a.m(true, opBts, rAX, at(rDI, offWriteCov))
	// ... the dirty bit of page pfn when tracking is on ...
	a.m(true, opMovLoad, rBX, at(rDI, offDirty))
	a.r(true, opTest, rBX, rBX)
	noDirty := a.jcc(ccE)
	a.m(true, opBts, r11, at(rBX, 0))
	a.patch(noDirty)
	// ... and the decode slot of the word, when its page is allocated.
	a.m(true, opMovLoad, rBX, at(rDI, offDCPages))
	a.m(true, opMovLoad, rBX, mem{base: rBX, index: r11, scale: 3})
	a.r(true, opTest, rBX, rBX)
	noPage := a.jcc(ccE)
	a.r(false, opMovStore, rCX, rAX)
	a.aluRI(extAnd, rAX, 0xFFC)
	a.m(false, opLea, rAX, mem{base: rAX, index: rAX, scale: 1}) // EAX = 3*(pa&0xFFC) = 12*word
	a.m(false, opMov8I, 0, mem{base: rBX, index: rAX, disp: int32(offDPIns)})
	a.byte1(fnUnset)
	a.patch(noPage)
}

// branchCC maps a branch kind to the jcc taken when cond holds on
// cmp Regs[rd], Regs[rs1].
func branchCC(fn uint8) byte {
	switch fn {
	case fnBEQ:
		return ccE
	case fnBNE:
		return ccNE
	case fnBLT:
		return ccL
	case fnBGE:
		return ccGE
	case fnBLTU:
		return ccB
	}
	return ccAE // fnBGEU
}

// setPC emits PC = va + off, va being the block's entry address.
func (a *asmBuf) setPC(off uint32) {
	a.m(false, opMovLoad, rAX, at(rDI, offNatVA))
	a.aluRI(extAdd, rAX, off)
	a.m(false, opMovStore, rAX, at(rDI, offPC))
}

// link emits Regs[rd] = va + off.
func (a *asmBuf) link(rd uint8, off uint32) {
	if rd == 0 {
		return
	}
	a.m(false, opMovLoad, rAX, at(rDI, offNatVA))
	a.aluRI(extAdd, rAX, off)
	a.store(rd, rAX)
}

// body emits b's body ops.
func (a *asmBuf) body(b *superblock) {
	for i := uint32(0); i < b.body; i++ {
		d := &b.ops[i]
		if d.fn < fnLW {
			a.alu(d)
		} else {
			a.memOp(d, i)
		}
	}
}

// blockCode emits b's block entry: body, then the terminator, which sets
// PC and returns n (untaken) or n+1 (taken or jump); a block without one
// returns n and leaves PC to sbRun.
func (a *asmBuf) blockCode(b *superblock) {
	a.prologue()
	a.body(b)
	n := b.n
	if !b.term {
		a.ret(n)
		return
	}
	d := &b.ops[b.body]
	toff := b.body << 2 // the terminator's offset from the entry
	switch d.fn {
	case fnJAL:
		a.link(d.rd, toff+4)
		a.setPC(toff + d.imm)
	case fnJALR:
		a.load(rCX, d.rs1)
		if d.imm != 0 {
			a.aluRI(extAdd, rCX, d.imm)
		}
		a.link(d.rd, toff+4)
		a.m(false, opMovStore, rCX, at(rDI, offPC))
	default:
		a.load(rAX, d.rd)
		a.cmpReg(rAX, d.rs1)
		taken := a.jcc(branchCC(d.fn))
		a.setPC(toff + 4)
		a.ret(n)
		a.patch(taken)
		a.setPC(toff + d.imm)
	}
	a.ret(n + 1)
}

// loopCode emits b's native self-loop (natSelfLoop holds): iterations of
// the body and terminator while the loads hit, the branch is taken and
// fewer than loopCap iterations completed. Returns, with R13 = completed
// iterations: a load's index and reason when it would not hit, body when
// the branch fell through, body+1 at the cap.
func (a *asmBuf) loopCode(b *superblock) {
	a.prologue()
	a.r(false, []byte{0x31}, r13, r13) // xor r13d, r13d
	top := len(a.b)
	a.body(b)
	a.r(true, opIncDec, 0, r13) // inc r13
	d := &b.ops[b.body]
	var fell int
	if d.fn == fnJAL {
		a.link(d.rd, b.n<<2)
	} else {
		a.load(rAX, d.rd)
		a.cmpReg(rAX, d.rs1)
		fell = a.jcc(branchCC(d.fn) ^ 1) // the inverse condition
	}
	a.m(true, opCmpR, r13, at(rDI, offNatCap))
	capped := a.jcc(ccE)
	a.patchTo(a.jmp(), top)
	if d.fn != fnJAL {
		a.patch(fell)
		a.ret(b.body)
	}
	a.patch(capped)
	a.ret(b.body + 1)
}

// codeArena is a machine's native code memory: one fixed mapping, filled
// in order and started over (with a new generation) when full. Its pages
// are never writable and executable at once: a write flips the pages it
// touches to read-write and back to read-execute before any code there
// can run again.
type codeArena struct {
	mem  []byte
	used int
}

// arenaSize bounds a machine's code memory. A block compiles to about
// 1 KB, and a machine compiles a few dozen.
const arenaSize = 256 << 10

func newArena() (*codeArena, bool) {
	m, err := syscall.Mmap(-1, 0, arenaSize, syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, false
	}
	return &codeArena{mem: m}, true
}

// put copies code into the arena and returns its address, or false when
// it does not fit.
func (ar *codeArena) put(code []byte) (uintptr, bool) {
	start := (ar.used + 15) &^ 15
	end := start + len(code)
	if end > len(ar.mem) {
		return 0, false
	}
	pg := syscall.Getpagesize()
	lo, hi := start&^(pg-1), (end+pg-1)&^(pg-1)
	if syscall.Mprotect(ar.mem[lo:hi], syscall.PROT_READ|syscall.PROT_WRITE) != nil {
		return 0, false
	}
	copy(ar.mem[start:], code)
	if syscall.Mprotect(ar.mem[lo:hi], syscall.PROT_READ|syscall.PROT_EXEC) != nil {
		return 0, false
	}
	ar.used = end
	return uintptr(unsafe.Pointer(&ar.mem[start])), true
}

func (ar *codeArena) free() {
	if ar.mem != nil {
		syscall.Munmap(ar.mem)
		ar.mem = nil
	}
}

// natCompile compiles b into the arena and reports whether b now has live
// native code. The arena is mapped on the first compile and unmapped by
// ReleaseNative or, for a CPU never released, when the CPU is collected.
// A full arena starts over under a new generation, which retires every
// block compiled before.
func (c *CPU) natCompile(b *superblock) bool {
	if c.nat.arena == nil {
		ar, ok := newArena()
		if !ok {
			c.nat.off = true
			return false
		}
		c.nat.arena = ar
		runtime.AddCleanup(c, (*codeArena).free, ar)
	}
	var a asmBuf
	a.cache(b, cachePool)
	a.blockCode(b)
	a.stubs()
	loopOff := -1
	if natSelfLoop(b) {
		for len(a.b)&15 != 0 {
			a.byte1(0xCC) // int3 padding
		}
		loopOff = len(a.b)
		a.cache(b, cachePool[:len(cachePool)-1])
		a.loopCode(b)
		a.stubs()
	}
	if len(a.b) > arenaSize/8 {
		return false // a page-long block of stores; the interpreter keeps it
	}
	base, ok := c.nat.arena.put(a.b)
	if !ok {
		c.nat.gen++
		c.nat.arena.used = 0
		if base, ok = c.nat.arena.put(a.b); !ok {
			return false
		}
	}
	if b.natCyc == nil {
		natPrefix(b)
	}
	b.nat, b.natGen, b.natLoop = base, c.nat.gen, 0
	if loopOff >= 0 {
		b.natLoop = base + uintptr(loopOff)
	}
	c.sbStat.NativeBlocks++
	c.sbStat.NativeBytes += uint64(len(a.b))
	return true
}

// ReleaseNative unmaps the CPU's native code memory (machine.Release
// calls it as the machine is given up). Should the CPU run again anyway,
// it interprets: the new generation retires every compiled block.
func (c *CPU) ReleaseNative() {
	c.nat.off = true
	c.nat.gen++
	if c.nat.arena != nil {
		c.nat.arena.free()
	}
}
