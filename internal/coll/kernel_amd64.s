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
