//go:build !purego

#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7 // highest basic leaf
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $(1<<27 | 1<<28), CX // OSXSAVE, AVX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	SETCS ret+0(FP)
no:
	RET

// MUL32 sets Y3 to c times the 32 bytes at (SI): each byte's low nibble
// indexes Y0 and its high nibble Y1 (the mask is Y2), sixteen lookups per
// 128-bit lane and VPSHUFB.
#define MUL32 \
	VMOVDQU (SI), Y3   \
	VPSRLQ  $4, Y3, Y4 \
	VPAND   Y2, Y3, Y3 \
	VPAND   Y2, Y4, Y4 \
	VPSHUFB Y3, Y0, Y3 \
	VPSHUFB Y4, Y1, Y4 \
	VPXOR   Y3, Y4, Y3

// func mulVector(tbl *[32]byte, dst, src []byte, xor bool)
//
// c*x = lo[x&15] ^ hi[x>>4]: Y0 holds the low-nibble table in both 128-bit
// lanes, Y1 the high-nibble table, Y2 the 0x0f mask. Loads and stores are
// unaligned; each step reads its 32 source bytes before it writes, so dst may
// be src. From the first VBROADCASTI128 to VZEROUPPER every instruction that
// names an X or Y register is VEX-encoded (VMOVQ, not MOVQ): a legacy-SSE one
// finds the upper YMM halves dirty and stalls the call, which costs more than
// the loop on a 512-byte piece. TestKernelStaysVEXWhileYMMIsLive checks it.
TEXT ·mulVector(SB), NOSPLIT, $0-57
	MOVQ    tbl+0(FP), AX
	MOVQ    dst_base+8(FP), DI
	MOVQ    dst_len+16(FP), CX
	MOVQ    src_base+32(FP), SI
	SHRQ    $5, CX
	JZ      done
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ    $15, DX
	VMOVQ   DX, X2
	VPBROADCASTB X2, Y2
	CMPB    xor+56(FP), $0
	JNE     xorstep

step:
	MUL32
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     step
	VZEROUPPER
	RET

xorstep:
	MUL32
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     xorstep
	VZEROUPPER

done:
	RET
