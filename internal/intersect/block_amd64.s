#include "textflag.h"

// EQ8 ORs into Y2 the lanes of Y0 equal to the element at off(DI).
#define EQ8(off) \
	VPBROADCASTD off(DI), Y1 \
	VPCMPEQD     Y1, Y0, Y3  \
	VPOR         Y3, Y2, Y2

// func blockMerge8(a, b []uint32) (c uint32, i, j int)
//
// The all-pair step compares a's block with each element of b's block,
// broadcast to every lane, and ORs the equality masks: a lane of a matches
// at most one element of b, since both lists are duplicate-free, so the
// popcount of the OR is the block pair's match count. The step then
// advances the block whose last element is smaller, both on a tie, without
// a branch: the next block starts are computed while the last elements
// load, and CMOV picks them, so the loop-carried chain is two loads, a
// compare and a move. SI and DI walk a and b; R12 and R13 are the last
// block starts; BX holds the count.
TEXT ·blockMerge8(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), R12
	MOVQ b_base+24(FP), DI
	MOVQ b_len+32(FP), R13
	XORL BX, BX
	SUBQ $8, R12
	JLT  done
	SUBQ $8, R13
	JLT  done
	LEAQ (SI)(R12*4), R12
	LEAQ (DI)(R13*4), R13

loop:
	VMOVDQU      (SI), Y0
	VPBROADCASTD (DI), Y1
	VPCMPEQD     Y1, Y0, Y2
	EQ8(4)
	EQ8(8)
	EQ8(12)
	EQ8(16)
	EQ8(20)
	EQ8(24)
	EQ8(28)
	VMOVMSKPS    Y2, AX
	POPCNTL      AX, AX
	ADDL         AX, BX
	LEAQ         32(SI), CX
	LEAQ         32(DI), DX
	MOVL         28(SI), AX
	CMPL         AX, 28(DI)
	CMOVQLS      CX, SI
	CMOVQCC      DX, DI
	CMPQ         SI, R12
	JHI          done
	CMPQ         DI, R13
	JLS          loop

done:
	VZEROUPPER
	MOVL BX, c+48(FP)
	SUBQ a_base+0(FP), SI
	SHRQ $2, SI
	MOVQ SI, i+56(FP)
	SUBQ b_base+24(FP), DI
	SHRQ $2, DI
	MOVQ DI, j+64(FP)
	RET
