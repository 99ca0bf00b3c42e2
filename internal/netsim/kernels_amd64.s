#include "go_asm.h"
#include "textflag.h"

// The block kernels of kernels_amd64.go. Y0-Y7 hold the pattern lanes
// and Y8 the block step; Y9-Y12 are the pattern's scratch registers.

// LANES sets Y0-Y7 to the lanes of the block at pattern state AX and Y8
// to the block step.
#define LANES \
	VMOVQ        AX, X15; \
	VPBROADCASTQ X15, Y15; \
	VPADDQ       ·patLanes+0(SB), Y15, Y0; \
	VPADDQ       ·patLanes+32(SB), Y15, Y1; \
	VPADDQ       ·patLanes+64(SB), Y15, Y2; \
	VPADDQ       ·patLanes+96(SB), Y15, Y3; \
	VPADDQ       ·patLanes+128(SB), Y15, Y4; \
	VPADDQ       ·patLanes+160(SB), Y15, Y5; \
	VPADDQ       ·patLanes+192(SB), Y15, Y6; \
	VPADDQ       ·patLanes+224(SB), Y15, Y7; \
	MOVQ         $const_patBlockStep, AX; \
	VMOVQ        AX, X8; \
	VPBROADCASTQ X8, Y8

// PATTERN sets Y9 to the 32 pattern bytes of the lanes' block, OR-ing
// the shuffled registers pairwise. Clobbers Y10-Y12.
#define PATTERN \
	VPSHUFB ·patShuf+0(SB), Y0, Y9; \
	VPSHUFB ·patShuf+32(SB), Y1, Y10; \
	VPSHUFB ·patShuf+64(SB), Y2, Y11; \
	VPSHUFB ·patShuf+96(SB), Y3, Y12; \
	VPOR    Y10, Y9, Y9; \
	VPOR    Y12, Y11, Y11; \
	VPSHUFB ·patShuf+128(SB), Y4, Y10; \
	VPSHUFB ·patShuf+160(SB), Y5, Y12; \
	VPOR    Y11, Y9, Y9; \
	VPOR    Y12, Y10, Y10; \
	VPSHUFB ·patShuf+192(SB), Y6, Y11; \
	VPSHUFB ·patShuf+224(SB), Y7, Y12; \
	VPOR    Y11, Y10, Y10; \
	VPOR    Y12, Y9, Y9; \
	VPOR    Y10, Y9, Y9

// ADVANCE moves the lanes on by one block.
#define ADVANCE \
	VPADDQ Y8, Y0, Y0; \
	VPADDQ Y8, Y1, Y1; \
	VPADDQ Y8, Y2, Y2; \
	VPADDQ Y8, Y3, Y3; \
	VPADDQ Y8, Y4, Y4; \
	VPADDQ Y8, Y5, Y5; \
	VPADDQ Y8, Y6, Y6; \
	VPADDQ Y8, Y7, Y7

// HALVES adds the 32-bit halves of the qwords of Y13 into the four
// accumulators of Y14, with Y15 holding 0xFFFFFFFF in every qword.
// Clobbers Y10 and Y13.
#define HALVES \
	VPSRLQ $32, Y13, Y10; \
	VPAND  Y15, Y13, Y13; \
	VPADDQ Y10, Y14, Y14; \
	VPADDQ Y13, Y14, Y14

// SUMACC sets AX to the sum of the four accumulators of Y14.
#define SUMACC \
	VEXTRACTI128 $1, Y14, X10; \
	VPADDQ       X10, X14, X14; \
	VPSHUFD      $0x4e, X14, X10; \
	VPADDQ       X10, X14, X14; \
	VMOVQ        X14, AX

// func FillPatternBlocks(buf []byte, x uint64)
TEXT ·FillPatternBlocks(SB), NOSPLIT, $0-32
	MOVQ buf_base+0(FP), DI
	MOVQ buf_len+8(FP), CX
	MOVQ x+24(FP), AX
	SHRQ $5, CX
	JZ   fillDone
	LANES

fillLoop:
	PATTERN
	VMOVDQU Y9, (DI)
	ADVANCE
	ADDQ    $32, DI
	DECQ    CX
	JNZ     fillLoop
	VZEROUPPER

fillDone:
	RET

// func checkPatternSumBlocks(buf []byte, x uint64) (n int, acc uint64)
TEXT ·checkPatternSumBlocks(SB), NOSPLIT, $0-48
	MOVQ buf_base+0(FP), SI
	MOVQ buf_len+8(FP), CX
	MOVQ x+24(FP), AX
	MOVQ SI, BX
	XORQ DX, DX
	SHRQ $5, CX
	JZ   checkEmpty
	LANES
	VPXOR    Y14, Y14, Y14
	VPCMPEQD Y15, Y15, Y15
	VPSRLQ   $32, Y15, Y15

checkLoop:
	VMOVDQU   (SI), Y13
	PATTERN
	VPCMPEQB  Y13, Y9, Y9
	VPMOVMSKB Y9, DX
	CMPL      DX, $0xffffffff
	JNE       checkOut
	HALVES
	ADVANCE
	ADDQ      $32, SI
	DECQ      CX
	JNZ       checkLoop

checkOut:
	SUMACC
	VZEROUPPER
	SUBQ BX, SI
	MOVQ SI, n+32(FP)
	MOVQ AX, acc+40(FP)
	RET

checkEmpty:
	MOVQ DX, n+32(FP)
	MOVQ DX, acc+40(FP)
	RET

// func sumBlocks(buf []byte) uint64
TEXT ·sumBlocks(SB), NOSPLIT, $0-32
	MOVQ buf_base+0(FP), SI
	MOVQ buf_len+8(FP), CX
	XORQ AX, AX
	SHRQ $5, CX
	JZ   sumDone
	VPXOR    Y14, Y14, Y14
	VPCMPEQD Y15, Y15, Y15
	VPSRLQ   $32, Y15, Y15

sumLoop:
	VMOVDQU (SI), Y13
	HALVES
	ADDQ    $32, SI
	DECQ    CX
	JNZ     sumLoop
	SUMACC
	VZEROUPPER

sumDone:
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
