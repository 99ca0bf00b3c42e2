package netsim

// AVX2 block kernels for the three per-byte passes. Each takes whole
// 32-byte blocks; the Go word loops in pattern.go and frame.go take the
// tail under 32 bytes and are the only path where useAVX2 is false.
//
// The pattern is built in eight YMM registers. Register j holds the
// pattern state x + k·patMul for k = j, j+8 in its low 128-bit lane and
// k = j+16, j+24 in its high lane. Byte k of the block is the top byte of
// x + k·patMul, byte 7 of one of those qwords, so one VPSHUFB per register
// (patShuf[j]) moves byte 7 of each qword to bytes j and j+8 of its lane
// and zeroes the rest, and OR-ing the eight results gives the block's 32
// bytes in order without a cross-lane permute. Every register then
// advances a block with one VPADDQ of patBlockStep.

// useAVX2 selects the block kernels. It is read from the CPU once; tests
// clear it to run the same inputs through the generic word loops.
var useAVX2 = cpuHasAVX2()

// patLanes is the initial lane state less x: register j starts at x plus
// patLanes[4j:4j+4].
var patLanes = func() (l [32]uint64) {
	for j := 0; j < 8; j++ {
		for q := 0; q < 4; q++ {
			l[4*j+q] = uint64(j+8*q) * patMul
		}
	}
	return l
}()

// patShuf[j] is register j's VPSHUFB mask: in each lane, byte j takes
// byte 7 (the top byte of the lane's first qword) and byte j+8 takes
// byte 15 (of its second); every other byte has its top bit set, which
// VPSHUFB reads as zero.
var patShuf = func() (s [8][32]byte) {
	for j := range s {
		for i := range s[j] {
			s[j][i] = 0x80
		}
		for lane := 0; lane < 32; lane += 16 {
			s[j][lane+j], s[j][lane+j+8] = 7, 15
		}
	}
	return s
}()

// patBlockStep advances a lane by one 32-byte block.
const patBlockStep uint64 = patMul * 32 & (1<<64 - 1)

// FillPatternBlocks fills the whole 32-byte blocks of buf, the first
// len(buf)&^31 bytes, with the pattern whose first byte is the top byte
// of x, the pattern state FillPatternSeeded computes. It needs AVX2 (see
// useAVX2); FillPatternSeeded is the entry point. The name keeps the
// FillPattern prefix by which profiles count the kernel as disk fill.
//
//go:noescape
func FillPatternBlocks(buf []byte, x uint64)

// checkPatternSumBlocks compares the whole 32-byte blocks of buf with the
// pattern from state x, stopping at the first block that differs. It
// returns n, the bytes before that block (or all whole blocks), and acc,
// the sum of the little-endian 32-bit halves of buf[:n] as the word loop
// of checkPatternSum keeps it. It needs AVX2.
//
//go:noescape
func checkPatternSumBlocks(buf []byte, x uint64) (n int, acc uint64)

// sumBlocks returns the sum of the little-endian 32-bit halves of the
// whole 32-byte blocks of buf, the accumulator SumBytes folds with addLE.
// It needs AVX2.
//
//go:noescape
func sumBlocks(buf []byte) uint64

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7 EBX bit 5)
// and the operating system saves YMM state (OSXSAVE and AVX in leaf 1
// ECX, then XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
