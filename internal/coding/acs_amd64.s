//go:build !purego

#include "textflag.h"

// func acsHardAVX2(metric *[64]int16, llr *int8, surv *uint64, tab *[9][64]int16, n int)
//
// Integer add-compare-select over n trellis steps (see acsHardScalar for
// the reference recursion). The 64 int16 path metrics live in Y0-Y3 in
// state order (Y0 = states 0-15, Y1 = 16-31, Y2 = 32-47, Y3 = 48-63).
// Each step:
//   - splits them into the even predecessors E (Y4 = states 0,2,…,30;
//     Y6 = 32,…,62) and the odd ones O (Y5, Y7): mask or shift each
//     dword to one word, VPACKUSDW pairs of registers, VPERMQ undoes the
//     per-128-bit-lane interleave;
//   - adds the step's branch-cost row (tab row 3·(la+1)+(lb+1): 32 even-
//     branch costs c, then 32 odd-branch costs c̄) — states k get
//     min(E+c, O+c̄), states k+32 get min(E+c̄, O+c);
//   - records E+… > O+… (the odd predecessor strictly cheaper; ties keep
//     the even one) per state, packs the four compare masks to bytes and
//     gathers their sign bits with VPMOVMSKB into the step's survivor
//     word, bit ns for state ns.
// Only wrapping word adds, signed minima and compares: no saturation can
// differ from the scalar int32 loop because the caller's renormalisation
// keeps every metric far inside int16. Loads and stores are unaligned.
// R14/R15 and Y15 are avoided (g register and zero register in the Go
// internal ABI).
TEXT ·acsHardAVX2(SB), NOSPLIT, $0-40
	MOVQ metric+0(FP), DI
	MOVQ llr+8(FP), SI
	MOVQ surv+16(FP), DX
	MOVQ tab+24(FP), R8
	MOVQ n+32(FP), CX
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VPCMPEQD Y14, Y14, Y14
	VPSRLD $16, Y14, Y14 // 0x0000FFFF per dword: the low (even-state) word
	TESTQ CX, CX
	JLE acsDone

acsLoop:
	// Branch-cost row for this step's (la, lb).
	MOVBQSX 0(SI), AX
	MOVBQSX 1(SI), BX
	LEAQ (AX)(AX*2), AX
	LEAQ 4(AX)(BX*1), AX
	SHLQ $7, AX
	ADDQ R8, AX

	// E0/O0 from states 0-31.
	VPAND Y14, Y0, Y8
	VPAND Y14, Y1, Y9
	VPACKUSDW Y9, Y8, Y4
	VPERMQ $0xD8, Y4, Y4
	VPSRLD $16, Y0, Y8
	VPSRLD $16, Y1, Y9
	VPACKUSDW Y9, Y8, Y5
	VPERMQ $0xD8, Y5, Y5
	// E1/O1 from states 32-63.
	VPAND Y14, Y2, Y8
	VPAND Y14, Y3, Y9
	VPACKUSDW Y9, Y8, Y6
	VPERMQ $0xD8, Y6, Y6
	VPSRLD $16, Y2, Y8
	VPSRLD $16, Y3, Y9
	VPACKUSDW Y9, Y8, Y7
	VPERMQ $0xD8, Y7, Y7

	// k = 0-15: states 0-15 (Y0, decisions Y10) and 32-47 (Y2, Y12).
	VPADDW 0(AX), Y4, Y8
	VPADDW 64(AX), Y5, Y9
	VPMINSW Y9, Y8, Y0
	VPCMPGTW Y9, Y8, Y10
	VPADDW 64(AX), Y4, Y8
	VPADDW 0(AX), Y5, Y9
	VPMINSW Y9, Y8, Y2
	VPCMPGTW Y9, Y8, Y12
	// k = 16-31: states 16-31 (Y1, Y11) and 48-63 (Y3, Y13).
	VPADDW 32(AX), Y6, Y8
	VPADDW 96(AX), Y7, Y9
	VPMINSW Y9, Y8, Y1
	VPCMPGTW Y9, Y8, Y11
	VPADDW 96(AX), Y6, Y8
	VPADDW 32(AX), Y7, Y9
	VPMINSW Y9, Y8, Y3
	VPCMPGTW Y9, Y8, Y13

	// Survivor word: bits 0-31 from Y10/Y11, bits 32-63 from Y12/Y13.
	VPACKSSWB Y11, Y10, Y10
	VPERMQ $0xD8, Y10, Y10
	VPMOVMSKB Y10, AX
	VPACKSSWB Y13, Y12, Y12
	VPERMQ $0xD8, Y12, Y12
	VPMOVMSKB Y12, BX
	SHLQ $32, BX
	ORQ BX, AX
	MOVQ AX, 0(DX)

	ADDQ $2, SI
	ADDQ $8, DX
	DECQ CX
	JNZ acsLoop

acsDone:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET

// ACS_FLOAT_GROUP computes destination states 4g…4g+3 (input 0) and
// 4g+32…4g+35 (input 1) from the eight metrics of states 8g…8g+7, which
// start at byte offset src (and src+32) of the current buffer DI:
//   - E (Y7) = even predecessors 8g, 8g+2, 8g+4, 8g+6 and O (Y8) = odd
//     ones: VUNPCKLPD/VUNPCKHPD interleave within 128-bit lanes, VPERMPD
//     $0xD8 puts the four in order;
//   - P and Q are the even- and odd-predecessor branch costs of states
//     4g…4g+3; the input-1 states take them swapped;
//   - c0 = E + cost (Y9) and c1 = O + cost (Y10); VCMPPD predicate 0x16
//     (NLE_UQ) is !(c0 <= c1), the scalar else branch, NaN included;
//     VBLENDVPD takes c1 there and VMOVMSKPD turns the same mask into the
//     survivor bits, ORed into BX at bit lo (input 0) and hi (input 1);
//   - the new metrics go to byte offsets dlo and dhi of the next buffer
//     R9.
#define ACS_FLOAT_GROUP(src, srcb, P, Q, dlo, dhi, lo, hi) \
	VMOVUPD src(DI), Y5; \
	VUNPCKLPD srcb(DI), Y5, Y7; \
	VUNPCKHPD srcb(DI), Y5, Y8; \
	VPERMPD $0xD8, Y7, Y7; \
	VPERMPD $0xD8, Y8, Y8; \
	VADDPD P, Y7, Y9; \
	VADDPD Q, Y8, Y10; \
	VCMPPD $0x16, Y10, Y9, Y11; \
	VBLENDVPD Y11, Y10, Y9, Y12; \
	VMOVUPD Y12, dlo(R9); \
	VMOVMSKPD Y11, AX; \
	SHLQ $lo, AX; \
	ORQ AX, BX; \
	VADDPD Q, Y7, Y9; \
	VADDPD P, Y8, Y10; \
	VCMPPD $0x16, Y10, Y9, Y11; \
	VBLENDVPD Y11, Y10, Y9, Y12; \
	VMOVUPD Y12, dhi(R9); \
	VMOVMSKPD Y11, AX; \
	SHLQ $hi, AX; \
	ORQ AX, BX

// func acsFloatAVX2(cur, next *[64]float64, llr *float64, surv *uint64, n int)
//
// Float64 add-compare-select over n trellis steps, forwardFloat's
// recursion lane for lane. The metrics ping-pong between cur and next
// (after an odd n the final ones are in next). Each step:
//   - builds C = [+0, la, lb, la+lb] (Y0): la+lb is one scalar VADDSD, the
//     add forwardFloat does for cost[3], and +0 is shifted in by VPSLLDQ;
//   - permutes C into the four branch-cost vectors the butterflies use
//     (Y1-Y4). Lane j of group g needs cost[outsIn[0][2(4g+j)]] (P) and
//     cost[outsIn[0][2(4g+j)+1]] (Q); across the eight groups those are
//     only four VPERMPD selectors, 0x44, 0xBB, 0xEE and 0x11 (derived
//     from outsIn by TestFloatCostSelectors), so every lane's cost is a
//     bit copy of C;
//   - runs the eight groups of ACS_FLOAT_GROUP and stores the survivor
//     word.
// Only VADDPD, no FMA, so each c0 and c1 is the scalar sum. Loads and
// stores are unaligned. R14/R15 and Y15 are avoided (g register and zero
// register in the Go internal ABI).
TEXT ·acsFloatAVX2(SB), NOSPLIT, $0-40
	MOVQ cur+0(FP), DI
	MOVQ next+8(FP), R9
	MOVQ llr+16(FP), SI
	MOVQ surv+24(FP), DX
	MOVQ n+32(FP), CX
	TESTQ CX, CX
	JLE acsFloatDone

acsFloatLoop:
	VMOVUPD 0(SI), X0        // [la, lb]
	VPERMILPD $1, X0, X1     // [lb, la]
	VADDSD X1, X0, X2        // [la+lb, lb]
	VPERMILPD $1, X2, X2     // [lb, la+lb]
	VPSLLDQ $8, X0, X3       // [+0, la]
	VINSERTF128 $1, X2, Y3, Y0
	VPERMPD $0x44, Y0, Y1
	VPERMPD $0xBB, Y0, Y2
	VPERMPD $0xEE, Y0, Y3
	VPERMPD $0x11, Y0, Y4
	XORQ BX, BX

	ACS_FLOAT_GROUP(0, 32, Y1, Y2, 0, 256, 0, 32)
	ACS_FLOAT_GROUP(64, 96, Y2, Y1, 32, 288, 4, 36)
	ACS_FLOAT_GROUP(128, 160, Y2, Y1, 64, 320, 8, 40)
	ACS_FLOAT_GROUP(192, 224, Y1, Y2, 96, 352, 12, 44)
	ACS_FLOAT_GROUP(256, 288, Y3, Y4, 128, 384, 16, 48)
	ACS_FLOAT_GROUP(320, 352, Y4, Y3, 160, 416, 20, 52)
	ACS_FLOAT_GROUP(384, 416, Y4, Y3, 192, 448, 24, 56)
	ACS_FLOAT_GROUP(448, 480, Y3, Y4, 224, 480, 28, 60)

	MOVQ BX, 0(DX)
	XCHGQ DI, R9
	ADDQ $16, SI
	ADDQ $8, DX
	DECQ CX
	JNZ acsFloatLoop

acsFloatDone:
	VZEROUPPER
	RET
