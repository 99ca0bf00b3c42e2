package cpu

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"lvmm/internal/isa"
)

// bothTiers runs f with superblocks interpreted, then with every block
// compiled to native code on its first run (on builds without a native
// tier the second pass interprets too). f returns the burst CPU's block
// counters: the native tier must leave every interpreter counter as it
// was.
func bothTiers(t *testing.T, f func() SBStats) {
	t.Helper()
	defer SetNativeThreshold(SetNativeThreshold(0))
	interp := f()
	SetNativeThreshold(1)
	nat := f()
	if runtime.GOARCH != "amd64" && nat.NativeBlocks != 0 {
		t.Fatalf("a build without the native tier compiled blocks: %v", nat)
	}
	nat.NativeBlocks, nat.NativeBytes, nat.NativeRuns = 0, 0, 0
	nat.NativeExitTLB, nat.NativeExitEnvelope, nat.NativeExitSMC, nat.NativeExitRange = 0, 0, 0, 0
	if nat != interp {
		t.Fatalf("native blocks changed the block counters:\n  interpreted: %v\n  native:      %v", interp, nat)
	}
}

// nativeTwins builds a Step CPU and a BurstRun CPU with 1 MB of RAM whose
// bytes count down from 0xFF in every page (so sign and zero extension
// differ), a vector table sending every trap to a HLT, dirty tracking on
// and words at 0x1000.
func nativeTwins(words []uint32) (slow, fast *CPU) {
	const handler = 0x3000
	slow, fast = twinCPUs(1<<20, 0x1000)
	for _, c := range []*CPU{slow, fast} {
		ram := c.Bus().RAM()
		for i := range ram {
			ram[i] = byte(0xFF - i)
		}
		for v := uint32(0); v < isa.NumVectors; v++ {
			c.Bus().Write32(v*4, handler)
		}
		c.Bus().Write32(handler, isa.EncodeR(isa.OpHLT, 0, 0, 0))
		for i, w := range words {
			c.Bus().Write32(0x1000+uint32(i)*4, w)
		}
		c.SetDirtyTracking(true)
		c.SetWriteCoverage(0)
	}
	return slow, fast
}

// nativeDiff runs words on both engines to a halt (or 2000 ticks) and
// fails on any difference in state, clock, RAM, dirty pages or coverage.
// It returns the burst CPU's block counters.
func nativeDiff(t *testing.T, words []uint32, regs [16]uint32, setup func(c *CPU)) SBStats {
	t.Helper()
	slow, fast := nativeTwins(words)
	slow.Regs, fast.Regs = regs, regs
	if setup != nil {
		setup(slow)
		setup(fast)
	}
	burstVsStep(t, slow, fast, 1<<62, 2000)
	if !bytes.Equal(slow.Bus().RAM(), fast.Bus().RAM()) {
		t.Fatal("RAM diverged")
	}
	if !slices64Equal(slow.DirtyPages(), fast.DirtyPages()) {
		t.Fatal("dirty pages diverged")
	}
	if slow.WriteCoverage() != fast.WriteCoverage() {
		t.Fatalf("coverage diverged: slow %#x, fast %#x", slow.WriteCoverage(), fast.WriteCoverage())
	}
	return fast.SBStats()
}

func slices64Equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNativeOpsMatchInterpreter runs every predecoded block op through the
// native tier and the interpreter: every ALU kind in register and
// immediate form with r0 among the destinations, and every load and store
// width at aligned, misaligned, page-edge, end-of-RAM and past-RAM
// addresses, each as the second op of a block. With native blocks forced
// the op must either complete natively or hand back to the interpreter
// with the reason the address calls for, and both runs must equal Step.
func TestNativeOpsMatchInterpreter(t *testing.T) {
	const ramEnd = 1 << 20
	var regs [16]uint32
	for r := 1; r < 16; r++ {
		regs[r] = 0x9E3779B9 * uint32(r) // mixed signs, shift counts past 31
	}
	regs[3] = 35
	regs[4] = 0xFFFFFFFF
	block := func(op uint32) []uint32 {
		return []uint32{
			isa.EncodeI(isa.OpADDI, 13, 13, 1),
			op,
			isa.EncodeI(isa.OpADDI, 12, 12, 3),
			isa.EncodeR(isa.OpHLT, 0, 0, 0),
		}
	}
	check := func(t *testing.T, op uint32, regs [16]uint32, wantExit uint64) {
		t.Helper()
		bothTiers(t, func() SBStats {
			sb := nativeDiff(t, block(op), regs, nil)
			if nativeMin == 0 || runtime.GOARCH != "amd64" {
				return sb
			}
			exits := sb.NativeExitTLB + sb.NativeExitEnvelope + sb.NativeExitSMC + sb.NativeExitRange
			if sb.NativeRuns != 1 || exits != wantExit || sb.NativeExitRange != wantExit {
				t.Fatalf("native tier: want 1 run and %d range exits, got %v", wantExit, sb)
			}
			return sb
		})
	}

	aluR := []uint32{isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSHL, isa.OpSHR, isa.OpSRA}
	aluI := []uint32{isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSHLI, isa.OpSHRI, isa.OpSRAI, isa.OpLUI}
	for _, rd := range []int{0, 5} {
		for _, op := range aluR {
			for _, rs2 := range []int{0, 3, 4, 6} {
				w := isa.EncodeR(op, rd, 7, rs2)
				t.Run(fmt.Sprintf("%s/rd%d/rs2=%d", isa.Disassemble(0, w), rd, rs2), func(t *testing.T) { check(t, w, regs, 0) })
			}
		}
		for _, op := range aluI {
			for _, imm := range []int32{0, 1, 31, 33, -1, isa.MaxImm18} {
				if op != isa.OpADDI && imm < 0 {
					continue
				}
				w := isa.EncodeI(op, rd, 9, imm)
				t.Run(fmt.Sprintf("%s/imm=%d", isa.Disassemble(0, w), imm), func(t *testing.T) { check(t, w, regs, 0) })
			}
		}
	}

	loads := map[uint32]uint32{isa.OpLW: 4, isa.OpLH: 2, isa.OpLHU: 2, isa.OpLB: 1, isa.OpLBU: 1}
	stores := map[uint32]uint32{isa.OpSW: 4, isa.OpSH: 2, isa.OpSB: 1}
	addrs := []uint32{0x8000, 0x8001, 0x8002, 0x8003, 0x8FFC, 0x8FFE, 0x8FFF,
		ramEnd - 4, ramEnd - 2, ramEnd - 1, ramEnd, ramEnd + 0x1000, 0xFFFFFFFC}
	for _, set := range []map[uint32]uint32{loads, stores} {
		for op, size := range set {
			for _, rd := range []int{0, 5} {
				for _, addr := range addrs {
					r := regs
					r[8] = addr - 0x10
					w := isa.EncodeI(op, rd, 8, 0x10)
					want := uint64(0)
					if addr%size != 0 || uint64(addr)+uint64(size) > ramEnd {
						want = 1
					}
					t.Run(fmt.Sprintf("%s/ea=%#x", isa.Disassemble(0, w), addr), func(t *testing.T) { check(t, w, r, want) })
				}
			}
		}
	}
}

// TestNativeStoreInvalidation: a native store outside every block extent
// must still clear the decode slot it lands on (the dispatcher runs the
// new word), set the dirty bit and the coverage bit; one into a built
// block's extent must hand back before it lands (SMC), so the interpreter
// bumps the epoch and abandons the block.
func TestNativeStoreInvalidation(t *testing.T) {
	const slot = 0x1800
	patched := isa.EncodeI(isa.OpADDI, 9, 9, 100)
	words := make([]uint32, (slot-0x1000)/4+2)
	for i := range words {
		words[i] = isa.EncodeR(isa.OpHLT, 0, 0, 0)
	}
	// 0x1000: jump to the slot once, so the dispatcher decodes it.
	words[0] = isa.EncodeJ(isa.OpJAL, 0, (slot-0x1000-4)/4)
	// 0x1100: the block: patch the slot, count, jump to it.
	words[0x40] = isa.EncodeI(isa.OpSW, 5, 14, slot-0x1000)
	words[0x41] = isa.EncodeI(isa.OpADDI, 8, 8, 1)
	words[0x42] = isa.EncodeJ(isa.OpJAL, 0, (slot-0x1108-4)/4)
	// The slot: MUL is never a block op, so the slot lies in no extent.
	words[(slot-0x1000)/4] = isa.EncodeR(isa.OpMUL, 9, 9, 10)
	words[(slot-0x1000)/4+1] = isa.EncodeJ(isa.OpJAL, 0, -(slot+8-0x1100)/4)
	var regs [16]uint32
	regs[5], regs[9], regs[10], regs[14] = patched, 3, 7, 0x1000
	bothTiers(t, func() SBStats {
		sb := nativeDiff(t, words, regs, nil)
		if nativeMin != 0 && runtime.GOARCH == "amd64" && sb.NativeRuns == 0 {
			t.Fatalf("the block never ran native code: %v", sb)
		}
		return sb
	})

	// SMC: the block stores over its own last op.
	smc := []uint32{
		isa.EncodeI(isa.OpADDI, 8, 8, 1),
		isa.EncodeI(isa.OpSW, 5, 14, 8),
		isa.EncodeI(isa.OpADDI, 9, 9, 1),
		isa.EncodeI(isa.OpBNE, 8, 11, -4),
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	}
	regs[11] = 5
	bothTiers(t, func() SBStats {
		sb := nativeDiff(t, smc, regs, nil)
		if nativeMin != 0 && runtime.GOARCH == "amd64" && sb.NativeExitSMC == 0 {
			t.Fatalf("the self-modifying store never handed back: %v", sb)
		}
		return sb
	})
}

// TestNativeEnvelopeExit: a store that could land in an armed spy page
// hands back to the interpreter, whose executeFast fires the hook.
func TestNativeEnvelopeExit(t *testing.T) {
	words := []uint32{
		isa.EncodeI(isa.OpADDI, 8, 8, 4),
		isa.EncodeI(isa.OpSW, 5, 8, 0),
		isa.EncodeI(isa.OpBNE, 8, 11, -3),
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	}
	var regs [16]uint32
	regs[8], regs[11] = 0x9000-0x40, 0x9000+0x40
	hits := [2]int{}
	bothTiers(t, func() SBStats {
		hits = [2]int{}
		i := 0
		sb := nativeDiff(t, words, regs, func(c *CPU) {
			h := &hits[i]
			i++
			c.SpyHook = func(uint32) { *h++ }
			if err := c.SetSpyWatch(0, 0x9010, 4, true); err != nil {
				t.Fatal(err)
			}
		})
		if hits[0] != hits[1] || hits[0] == 0 {
			t.Fatalf("spy hits: slow %d, fast %d", hits[0], hits[1])
		}
		if nativeMin != 0 && runtime.GOARCH == "amd64" && sb.NativeExitEnvelope == 0 {
			t.Fatalf("stores into the armed page never handed back: %v", sb)
		}
		return sb
	})
}
