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
