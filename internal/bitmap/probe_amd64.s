#include "textflag.h"

// func countSetRank(words []uint64, vs []uint32, u uint32) (c, rank uint32, ok bool)
//
// Each step loads 16 IDs and turns them into 32-bit word indexes (v >> 5).
// VPCMPUD keeps the lanes whose index is below the capacity, 2*len(words);
// unless all 16 pass, the kernel gives up. VPGATHERDD fetches the 16
// words under that mask, VPRORVD rotates each by v mod 32 so the probed
// bit lands in bit 0, and VPTESTMD turns those bits into a 16-bit mask
// whose popcount is the step's matches. A second VPCMPUD against u,
// broadcast to every lane, gives the lanes below u, whose popcount adds to
// the rank. The last len(vs) % 16 IDs take one more step under the opmask
// K4 = (1 << r) - 1: the load zeroes the other lanes without reading
// them, and the capacity check, the gather, the u compare and the bit test
// all run under K4, so those lanes neither fault nor count. New bitmaps
// hold at most 2^26 words, so the capacity fits a 32-bit lane.
TEXT ·countSetRank(SB), NOSPLIT, $0-65
	MOVQ words_base+0(FP), DI
	MOVQ words_len+8(FP), AX
	MOVQ vs_base+24(FP), SI
	MOVQ vs_len+32(FP), BX
	SHLQ $1, AX
	VPBROADCASTD AX, Z15
	MOVL u+48(FP), AX
	VPBROADCASTD AX, Z13
	MOVL $1, AX
	VPBROADCASTD AX, Z14
	XORL DX, DX
	XORL R8, R8
	MOVQ BX, CX
	SHRQ $4, CX
	JZ   tail

loop:
	VMOVDQU32 (SI), Z0
	VPSRLD    $5, Z0, Z1
	VPCMPUD   $1, Z15, Z1, K1
	KORTESTW  K1, K1
	JCC       outside
	VPCMPUD   $1, Z13, Z0, K3
	VPGATHERDD (DI)(Z1*4), K1, Z2
	VPRORVD   Z0, Z2, Z2
	VPTESTMD  Z14, Z2, K2
	KMOVW     K2, AX
	POPCNTL   AX, AX
	ADDL      AX, DX
	KMOVW     K3, AX
	POPCNTL   AX, AX
	ADDL      AX, R8
	ADDQ      $64, SI
	DECQ      CX
	JNZ       loop

tail:
	MOVQ BX, CX
	ANDQ $15, CX
	JZ   done
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K4
	VMOVDQU32.Z (SI), K4, Z0
	VPSRLD      $5, Z0, Z1
	VPCMPUD     $5, Z15, Z1, K4, K1
	KORTESTW    K1, K1
	JNZ         outside
	VPCMPUD     $1, Z13, Z0, K4, K3
	KMOVW       K4, K1
	VPGATHERDD  (DI)(Z1*4), K1, Z2
	VPRORVD     Z0, Z2, Z2
	VPTESTMD    Z14, Z2, K4, K2
	KMOVW       K2, AX
	POPCNTL     AX, AX
	ADDL        AX, DX
	KMOVW       K3, AX
	POPCNTL     AX, AX
	ADDL        AX, R8

done:
	VZEROUPPER
	MOVL DX, c+56(FP)
	MOVL R8, rank+60(FP)
	MOVB $1, ok+64(FP)
	RET

outside:
	VZEROUPPER
	MOVL $0, c+56(FP)
	MOVL $0, rank+60(FP)
	MOVB $0, ok+64(FP)
	RET
