#include "textflag.h"

// func nativeCall(code uintptr, c *CPU) (exit uint32, iters uint64)
//
// Calls compiled superblock code (native_amd64.go) with DI = c. The code
// uses AX, BX, CX, DX, SI, DI and R8-R13, touches the stack only through
// its own return address, and returns its exit value in AX and, from a
// self-loop entry, the completed iterations in R13.
TEXT ·nativeCall(SB), NOSPLIT, $0-32
	MOVQ code+0(FP), AX
	MOVQ c+8(FP), DI
	CALL AX
	MOVL AX, exit+16(FP)
	MOVQ R13, iters+24(FP)
	RET
