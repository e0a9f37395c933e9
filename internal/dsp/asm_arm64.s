//go:build !purego

#include "textflag.h"

// NEON kernels for the planar DSP hot paths, mirroring asm_amd64.s at a
// vector width of two float64 lanes. Contract (see dispatch.go): every
// kernel performs exactly the scalar fallback's floating-point
// operations per element, in the same order — vector fmul/fadd/fsub
// only, never FMA (fmla) — so results are bit-identical to the Go loops
// for finite inputs. Lanes are independent bins, so processing
// two at a time does not reorder any dependent operation. No alignment
// is required.
//
// The Go assembler has no mnemonics for the arm64 floating-point vector
// arithmetic instructions, so those are emitted as WORD constants. Each
// macro name spells the operation and fixed registers (FMUL2D_V6_V2_V4 =
// fmul v6.2d, v2.2d, v4.2d); the encodings were generated and verified
// with llvm-mc. Everything structural (loads, stores, permutes, dup)
// uses native mnemonics.

#define FMUL2D_V6_V2_V4 WORD $0x6E64DC46 // fmul v6.2d, v2.2d, v4.2d
#define FMUL2D_V7_V3_V5 WORD $0x6E65DC67 // fmul v7.2d, v3.2d, v5.2d
#define FSUB2D_V6_V6_V7 WORD $0x4EE7D4C6 // fsub v6.2d, v6.2d, v7.2d
#define FADD2D_V0_V0_V6 WORD $0x4E66D400 // fadd v0.2d, v0.2d, v6.2d
#define FMUL2D_V6_V2_V5 WORD $0x6E65DC46 // fmul v6.2d, v2.2d, v5.2d
#define FMUL2D_V7_V3_V4 WORD $0x6E64DC67 // fmul v7.2d, v3.2d, v4.2d
#define FADD2D_V6_V6_V7 WORD $0x4E67D4C6 // fadd v6.2d, v6.2d, v7.2d
#define FADD2D_V1_V1_V6 WORD $0x4E66D421 // fadd v1.2d, v1.2d, v6.2d

#define FADD2D_V4_V2_V3 WORD $0x4E63D444 // fadd v4.2d, v2.2d, v3.2d
#define FSUB2D_V5_V2_V3 WORD $0x4EE3D445 // fsub v5.2d, v2.2d, v3.2d
#define FADD2D_V20_V18_V19 WORD $0x4E73D654 // fadd v20.2d, v18.2d, v19.2d
#define FSUB2D_V21_V18_V19 WORD $0x4EF3D655 // fsub v21.2d, v18.2d, v19.2d

#define FMUL2D_V2_V1_V30 WORD $0x6E7EDC22  // fmul v2.2d, v1.2d, v30.2d
#define FMUL2D_V3_V17_V31 WORD $0x6E7FDE23 // fmul v3.2d, v17.2d, v31.2d
#define FSUB2D_V2_V2_V3 WORD $0x4EE3D442   // fsub v2.2d, v2.2d, v3.2d
#define FMUL2D_V3_V17_V30 WORD $0x6E7EDE23 // fmul v3.2d, v17.2d, v30.2d
#define FMUL2D_V4_V1_V31 WORD $0x6E7FDC24  // fmul v4.2d, v1.2d, v31.2d
#define FADD2D_V3_V3_V4 WORD $0x4E64D463   // fadd v3.2d, v3.2d, v4.2d
#define FSUB2D_V1_V0_V2 WORD $0x4EE2D401   // fsub v1.2d, v0.2d, v2.2d
#define FADD2D_V0_V0_V2 WORD $0x4E62D400   // fadd v0.2d, v0.2d, v2.2d
#define FSUB2D_V17_V16_V3 WORD $0x4EE3D611 // fsub v17.2d, v16.2d, v3.2d
#define FADD2D_V16_V16_V3 WORD $0x4E63D610 // fadd v16.2d, v16.2d, v3.2d

// func slideTabASM(dre, dim, sre, sim, dfr, dfi, twV *float64, runs *int, m, nruns int)
//
// The dense runs of a SlideTab schedule: nruns (k0, twOff, groups)
// triples at runs, each covering groups×2 consecutive bins from bin k0.
// Per group: load src accumulators contiguously, stream m twiddle vector
// pairs from twV (tr×2 then ti×2 per j), accumulate accR += dr·tr −
// di·ti and accI += dr·ti + di·tr with the diff duplicated across lanes,
// store contiguously to dst.
TEXT ·slideTabASM(SB), NOSPLIT, $0-80
	MOVD dfr+32(FP), R4
	MOVD dfi+40(FP), R5
	MOVD runs+56(FP), R6
	MOVD m+64(FP), R7
	MOVD nruns+72(FP), R8
	CMP  $1, R8
	BLT  stDone

stRunLoop:
	MOVD 0(R6), R12 // k0
	MOVD dre+0(FP), R0
	ADD  R12<<3, R0, R0
	MOVD dim+8(FP), R1
	ADD  R12<<3, R1, R1
	MOVD sre+16(FP), R2
	ADD  R12<<3, R2, R2
	MOVD sim+24(FP), R3
	ADD  R12<<3, R3, R3
	MOVD 8(R6), R12 // twOff
	MOVD twV+48(FP), R9
	ADD  R12<<3, R9, R9
	MOVD 16(R6), R10 // groups
	ADD  $24, R6

stGLoop:
	VLD1 (R2), [V0.D2] // accR
	VLD1 (R3), [V1.D2] // accI
	MOVD $0, R11       // j

stJLoop:
	FMOVD (R4)(R11<<3), F16
	VDUP  V16.D[0], V2.D2 // dr
	FMOVD (R5)(R11<<3), F17
	VDUP  V17.D[0], V3.D2        // di
	VLD1.P 32(R9), [V4.D2, V5.D2] // tr, ti
	FMUL2D_V6_V2_V4               // dr*tr
	FMUL2D_V7_V3_V5               // di*ti
	FSUB2D_V6_V6_V7
	FADD2D_V0_V0_V6 // accR += dr*tr - di*ti
	FMUL2D_V6_V2_V5 // dr*ti
	FMUL2D_V7_V3_V4 // di*tr
	FADD2D_V6_V6_V7
	FADD2D_V1_V1_V6 // accI += dr*ti + di*tr
	ADD  $1, R11
	CMP  R7, R11
	BLT  stJLoop

	VST1.P [V0.D2], 16(R0)
	VST1.P [V1.D2], 16(R1)
	ADD  $16, R2
	ADD  $16, R3
	SUBS $1, R10
	BGT  stGLoop
	SUBS $1, R8
	BGT  stRunLoop

stDone:
	RET

// func fftStage1ASM(re, im *float64, n int)
//
// Size-2 butterflies on adjacent pairs: out[2i] = x[2i]+x[2i+1],
// out[2i+1] = x[2i]-x[2i+1], two pairs (four elements) per iteration via
// trn1/trn2 deinterleave and zip1/zip2 reinterleave. n must be a
// multiple of 4.
TEXT ·fftStage1ASM(SB), NOSPLIT, $0-24
	MOVD re+0(FP), R0
	MOVD im+8(FP), R1
	MOVD n+16(FP), R2

s1Loop:
	// re plane
	VLD1  (R0), [V0.D2, V1.D2]
	VTRN1 V1.D2, V0.D2, V2.D2 // [r0, r2]
	VTRN2 V1.D2, V0.D2, V3.D2 // [r1, r3]
	FADD2D_V4_V2_V3           // sums
	FSUB2D_V5_V2_V3           // diffs
	VZIP1 V5.D2, V4.D2, V0.D2 // [s0, d0]
	VZIP2 V5.D2, V4.D2, V1.D2 // [s1, d1]
	VST1.P [V0.D2, V1.D2], 32(R0)
	// im plane
	VLD1  (R1), [V16.D2, V17.D2]
	VTRN1 V17.D2, V16.D2, V18.D2
	VTRN2 V17.D2, V16.D2, V19.D2
	FADD2D_V20_V18_V19
	FSUB2D_V21_V18_V19
	VZIP1 V21.D2, V20.D2, V16.D2
	VZIP2 V21.D2, V20.D2, V17.D2
	VST1.P [V16.D2, V17.D2], 32(R1)
	SUBS $4, R2
	BGT  s1Loop
	RET

// func fftStage2ASM(re, im, s2 *float64, n int)
//
// Size-4 butterflies: at two lanes the vector width equals the half-
// block, so lo = [x0,x1] and hi = [x2,x3] load contiguously with no
// permutes; the stage's two twiddles arrive as [w0, w1] pairs in s2.
// n must be a multiple of 4.
TEXT ·fftStage2ASM(SB), NOSPLIT, $0-32
	MOVD re+0(FP), R0
	MOVD im+8(FP), R1
	MOVD s2+16(FP), R2
	MOVD n+24(FP), R3
	VLD1 (R2), [V30.D2, V31.D2] // wr = [w0r, w1r], wi = [w0i, w1i]

s2Loop:
	MOVD   R0, R4
	MOVD   R1, R5
	VLD1.P 32(R0), [V0.D2, V1.D2]   // loR, hiR (xr)
	VLD1.P 32(R1), [V16.D2, V17.D2] // loI, hiI (xi)
	FMUL2D_V2_V1_V30
	FMUL2D_V3_V17_V31
	FSUB2D_V2_V2_V3   // tr = wr*xr - wi*xi
	FMUL2D_V3_V17_V30
	FMUL2D_V4_V1_V31
	FADD2D_V3_V3_V4   // ti = wr*xi + wi*xr
	FSUB2D_V1_V0_V2   // hiR' = loR - tr
	FADD2D_V0_V0_V2   // loR' = loR + tr
	FSUB2D_V17_V16_V3 // hiI' = loI - ti
	FADD2D_V16_V16_V3 // loI' = loI + ti
	VST1 [V0.D2, V1.D2], (R4)
	VST1 [V16.D2, V17.D2], (R5)
	SUBS $4, R3
	BGT  s2Loop
	RET

// func fftStageASM(re, im, tws *float64, n, size int)
//
// One generic butterfly stage of size >= 8: for every size-sized block,
// walk j in twos with lo/hi half-a-block apart and the per-j twiddles
// streamed from tws (restarted per block). Same register convention —
// and therefore the same arithmetic encodings — as fftStage2ASM.
TEXT ·fftStageASM(SB), NOSPLIT, $0-40
	MOVD re+0(FP), R0
	MOVD im+8(FP), R1
	MOVD tws+16(FP), R2
	MOVD n+24(FP), R3
	MOVD size+32(FP), R4
	LSR  $1, R4, R5 // half
	LSL  $3, R5, R6 // half*8 bytes
	MOVD R3, R7     // elements remaining

gsOuter:
	MOVD R2, R8 // twiddle stream restarts per block
	MOVD R0, R9 // &re[lo]
	MOVD R1, R10 // &im[lo]
	ADD  R6, R9, R11  // &re[hi]
	ADD  R6, R10, R12 // &im[hi]
	MOVD R5, R13      // butterflies left in block

gsInner:
	VLD1.P 32(R8), [V30.D2, V31.D2] // wr, wi
	VLD1   (R11), [V1.D2]           // xr = re[hi]
	VLD1   (R12), [V17.D2]          // xi = im[hi]
	VLD1   (R9), [V0.D2]            // re[lo]
	VLD1   (R10), [V16.D2]          // im[lo]
	FMUL2D_V2_V1_V30
	FMUL2D_V3_V17_V31
	FSUB2D_V2_V2_V3   // tr = wr*xr - wi*xi
	FMUL2D_V3_V17_V30
	FMUL2D_V4_V1_V31
	FADD2D_V3_V3_V4   // ti = wr*xi + wi*xr
	FSUB2D_V1_V0_V2   // re[hi] = re[lo] - tr
	FADD2D_V0_V0_V2   // re[lo] += tr
	FSUB2D_V17_V16_V3 // im[hi] = im[lo] - ti
	FADD2D_V16_V16_V3 // im[lo] += ti
	VST1.P [V1.D2], 16(R11)
	VST1.P [V17.D2], 16(R12)
	VST1.P [V0.D2], 16(R9)
	VST1.P [V16.D2], 16(R10)
	SUBS $2, R13
	BGT  gsInner

	LSL  $3, R4, R13 // size*8 bytes
	ADD  R13, R0, R0
	ADD  R13, R1, R1
	SUBS R4, R7, R7
	BGT  gsOuter
	RET
