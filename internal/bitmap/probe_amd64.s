#include "textflag.h"

// func countSet16(words []uint64, vs []uint32) (c uint32, ok bool)
//
// Each step loads 16 IDs and turns them into 32-bit word indexes (v >> 5).
// VPCMPUD keeps the lanes whose index is below the capacity, 2*len(words);
// unless all 16 pass, the kernel gives up. VPGATHERDD fetches the 16
// words under that mask, VPRORVD rotates each by v mod 32 so the probed
// bit lands in bit 0, and VPTESTMD turns those bits into a 16-bit mask
// whose popcount is the step's matches. New bitmaps hold at most 2^26
// words, so the capacity fits a 32-bit lane.
TEXT ·countSet16(SB), NOSPLIT, $0-53
	MOVQ words_base+0(FP), DI
	MOVQ words_len+8(FP), AX
	MOVQ vs_base+24(FP), SI
	MOVQ vs_len+32(FP), CX
	SHLQ $1, AX
	VPBROADCASTD AX, Z15
	MOVL $1, AX
	VPBROADCASTD AX, Z14
	XORL DX, DX
	SHRQ $4, CX
	JZ   done

loop:
	VMOVDQU32 (SI), Z0
	VPSRLD    $5, Z0, Z1
	VPCMPUD   $1, Z15, Z1, K1
	KORTESTW  K1, K1
	JCC       outside
	VPGATHERDD (DI)(Z1*4), K1, Z2
	VPRORVD   Z0, Z2, Z2
	VPTESTMD  Z14, Z2, K2
	KMOVW     K2, AX
	POPCNTL   AX, AX
	ADDL      AX, DX
	ADDQ      $64, SI
	DECQ      CX
	JNZ       loop

done:
	VZEROUPPER
	MOVL DX, c+48(FP)
	MOVB $1, ok+52(FP)
	RET

outside:
	VZEROUPPER
	MOVL $0, c+48(FP)
	MOVB $0, ok+52(FP)
	RET
