#include "textflag.h"

// BLOCKS defines name(a, b, dst unsafe.Pointer, n int): n ≥ 1 blocks of
// 64 bytes, dst = a OP b lane by lane. a is OP's destination register,
// so MAXPx/MINPx keep b on NaN and ±0 exactly as maxOf/minOf do. The
// loads are unaligned: a typed view is aligned for its element only.
#define BLOCKS(name, MOV, OP) \
TEXT name(SB), NOSPLIT, $0-32; \
	MOVQ a+0(FP), SI; \
	MOVQ b+8(FP), DX; \
	MOVQ dst+16(FP), DI; \
	MOVQ n+24(FP), CX; \
loop: \
	MOV 0(SI), X0; \
	MOV 16(SI), X1; \
	MOV 32(SI), X2; \
	MOV 48(SI), X3; \
	MOV 0(DX), X4; \
	MOV 16(DX), X5; \
	MOV 32(DX), X6; \
	MOV 48(DX), X7; \
	OP X4, X0; \
	OP X5, X1; \
	OP X6, X2; \
	OP X7, X3; \
	MOV X0, 0(DI); \
	MOV X1, 16(DI); \
	MOV X2, 32(DI); \
	MOV X3, 48(DI); \
	ADDQ $64, SI; \
	ADDQ $64, DX; \
	ADDQ $64, DI; \
	DECQ CX; \
	JNZ loop; \
	RET

BLOCKS(·addpd, MOVUPD, ADDPD)
BLOCKS(·mulpd, MOVUPD, MULPD)
BLOCKS(·maxpd, MOVUPD, MAXPD)
BLOCKS(·minpd, MOVUPD, MINPD)
BLOCKS(·addps, MOVUPS, ADDPS)
BLOCKS(·mulps, MOVUPS, MULPS)
BLOCKS(·maxps, MOVUPS, MAXPS)
BLOCKS(·minps, MOVUPS, MINPS)
BLOCKS(·paddq, MOVOU, PADDQ)
BLOCKS(·paddl, MOVOU, PADDL)
BLOCKS(·paddw, MOVOU, PADDW)
BLOCKS(·paddb, MOVOU, PADDB)
BLOCKS(·pand, MOVOU, PAND)
BLOCKS(·por, MOVOU, POR)
BLOCKS(·pxor, MOVOU, PXOR)

// TREE defines name(s [4]unsafe.Pointer, d [8]unsafe.Pointer, nd, n int):
// n ≥ 1 blocks of 64 bytes, (s0 OP s1) OP (s2 OP s3) lane by lane, stored
// at d[0] … d[nd-1], 1 ≤ nd ≤ 8. The left operand of every OP is in its
// destination register, as in BLOCKS. A block is loaded from all four
// sources before it is stored anywhere, so a destination may be a source.
#define TREE(name, MOV, OP) \
TEXT name(SB), NOSPLIT, $0-112; \
	MOVQ s_0+0(FP), R8; \
	MOVQ s_1+8(FP), R9; \
	MOVQ s_2+16(FP), R10; \
	MOVQ s_3+24(FP), R11; \
	LEAQ d_0+32(FP), DI; \
	MOVQ nd+96(FP), CX; \
	MOVQ n+104(FP), DX; \
	XORQ BX, BX; \
block: \
	MOV 0(R8)(BX*1), X0; \
	MOV 16(R8)(BX*1), X1; \
	MOV 32(R8)(BX*1), X2; \
	MOV 48(R8)(BX*1), X3; \
	MOV 0(R9)(BX*1), X4; \
	MOV 16(R9)(BX*1), X5; \
	MOV 32(R9)(BX*1), X6; \
	MOV 48(R9)(BX*1), X7; \
	MOV 0(R10)(BX*1), X8; \
	MOV 16(R10)(BX*1), X9; \
	MOV 32(R10)(BX*1), X10; \
	MOV 48(R10)(BX*1), X11; \
	MOV 0(R11)(BX*1), X12; \
	MOV 16(R11)(BX*1), X13; \
	MOV 32(R11)(BX*1), X14; \
	MOV 48(R11)(BX*1), X15; \
	OP X4, X0; \
	OP X5, X1; \
	OP X6, X2; \
	OP X7, X3; \
	OP X12, X8; \
	OP X13, X9; \
	OP X14, X10; \
	OP X15, X11; \
	OP X8, X0; \
	OP X9, X1; \
	OP X10, X2; \
	OP X11, X3; \
	XORQ SI, SI; \
store: \
	MOVQ (DI)(SI*8), AX; \
	MOV X0, 0(AX)(BX*1); \
	MOV X1, 16(AX)(BX*1); \
	MOV X2, 32(AX)(BX*1); \
	MOV X3, 48(AX)(BX*1); \
	INCQ SI; \
	CMPQ SI, CX; \
	JLT store; \
	ADDQ $64, BX; \
	DECQ DX; \
	JNZ block; \
	RET

TREE(·addpd4, MOVUPD, ADDPD)
TREE(·mulpd4, MOVUPD, MULPD)
TREE(·maxpd4, MOVUPD, MAXPD)
TREE(·minpd4, MOVUPD, MINPD)
TREE(·addps4, MOVUPS, ADDPS)
TREE(·mulps4, MOVUPS, MULPS)
TREE(·maxps4, MOVUPS, MAXPS)
TREE(·minps4, MOVUPS, MINPS)
TREE(·paddq4, MOVOU, PADDQ)
TREE(·paddl4, MOVOU, PADDL)
TREE(·paddw4, MOVOU, PADDW)
TREE(·paddb4, MOVOU, PADDB)
TREE(·pand4, MOVOU, PAND)
TREE(·por4, MOVOU, POR)
TREE(·pxor4, MOVOU, PXOR)
