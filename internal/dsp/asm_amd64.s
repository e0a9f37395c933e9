//go:build !purego

#include "textflag.h"

// AVX2 kernels for the planar DSP hot paths. Contract (see dispatch.go):
// every kernel performs exactly the scalar fallback's floating-point
// operations per element, in the same order — VMULPD/VADDPD/VSUBPD only,
// never FMA — so results are bit-identical to the Go loops for finite
// inputs. Lanes are independent bins, so processing four at a
// time does not reorder any dependent operation. All loads and stores
// are unaligned (VMOVUPD/VMOVSD); callers need no alignment or padding.
// R14/R15 and X15 are avoided (g register and zero register in the Go
// internal ABI).

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func slideTabASM(dre, dim, sre, sim, dfr, dfi, twV *float64, runs *int, m, nruns int)
//
// The dense runs of a SlideTab schedule: nruns (k0, twOff, groups)
// triples at runs, each covering groups×4 consecutive bins from bin k0.
// Per group: load src accumulators contiguously, stream m twiddle vector
// pairs from twV (tr×4 then ti×4 per j), accumulate accR += dr·tr −
// di·ti and accI += dr·ti + di·tr with the diff broadcast across lanes,
// store contiguously to dst. m == 4 (the dominant receiver shape) keeps
// all four diffs broadcast in registers across all runs and unrolls the
// j walk.
TEXT ·slideTabASM(SB), NOSPLIT, $0-80
	MOVQ dfr+32(FP), R8
	MOVQ dfi+40(FP), R9
	MOVQ runs+56(FP), R11
	MOVQ m+64(FP), R12
	MOVQ nruns+72(FP), R13
	TESTQ R13, R13
	JLE  stDone
	CMPQ R12, $4
	JEQ  stM4Setup

stRunLoop:
	MOVQ 0(R11), AX // k0
	MOVQ dre+0(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ dim+8(FP), SI
	LEAQ (SI)(AX*8), SI
	MOVQ sre+16(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ sim+24(FP), CX
	LEAQ (CX)(AX*8), CX
	MOVQ 8(R11), BX // twOff
	MOVQ twV+48(FP), R10
	LEAQ (R10)(BX*8), R10
	MOVQ 16(R11), AX // groups
	ADDQ $24, R11

stGLoop:
	VMOVUPD (DX), Y0 // accR
	VMOVUPD (CX), Y1 // accI
	XORQ BX, BX

stJLoop:
	VBROADCASTSD (R8)(BX*8), Y2 // dr
	VBROADCASTSD (R9)(BX*8), Y3 // di
	VMOVUPD (R10), Y4           // tr
	VMOVUPD 32(R10), Y5         // ti
	ADDQ $64, R10
	VMULPD Y4, Y2, Y6 // dr*tr
	VMULPD Y5, Y3, Y7 // di*ti
	VSUBPD Y7, Y6, Y6
	VADDPD Y6, Y0, Y0 // accR += dr*tr - di*ti
	VMULPD Y5, Y2, Y6 // dr*ti
	VMULPD Y4, Y3, Y7 // di*tr
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y1, Y1 // accI += dr*ti + di*tr
	INCQ BX
	CMPQ BX, R12
	JLT  stJLoop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, CX
	DECQ AX
	JG   stGLoop
	DECQ R13
	JG   stRunLoop
	JMP  stDone

stM4Setup:
	VBROADCASTSD 0(R8), Y6   // d0r
	VBROADCASTSD 8(R8), Y7   // d1r
	VBROADCASTSD 16(R8), Y8  // d2r
	VBROADCASTSD 24(R8), Y9  // d3r
	VBROADCASTSD 0(R9), Y10  // d0i
	VBROADCASTSD 8(R9), Y11  // d1i
	VBROADCASTSD 16(R9), Y12 // d2i
	VBROADCASTSD 24(R9), Y13 // d3i

stM4RunLoop:
	MOVQ 0(R11), AX // k0
	MOVQ dre+0(FP), DI
	LEAQ (DI)(AX*8), DI
	MOVQ dim+8(FP), SI
	LEAQ (SI)(AX*8), SI
	MOVQ sre+16(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ sim+24(FP), CX
	LEAQ (CX)(AX*8), CX
	MOVQ 8(R11), BX // twOff
	MOVQ twV+48(FP), R10
	LEAQ (R10)(BX*8), R10
	MOVQ 16(R11), AX // groups
	ADDQ $24, R11

stM4Loop:
	VMOVUPD (DX), Y0 // accR
	VMOVUPD (CX), Y1 // accI

	// j = 0
	VMOVUPD (R10), Y2
	VMOVUPD 32(R10), Y3
	VMULPD Y2, Y6, Y4
	VMULPD Y3, Y10, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD Y4, Y0, Y0
	VMULPD Y3, Y6, Y4
	VMULPD Y2, Y10, Y5
	VADDPD Y5, Y4, Y4
	VADDPD Y4, Y1, Y1
	// j = 1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	VMULPD Y2, Y7, Y4
	VMULPD Y3, Y11, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD Y4, Y0, Y0
	VMULPD Y3, Y7, Y4
	VMULPD Y2, Y11, Y5
	VADDPD Y5, Y4, Y4
	VADDPD Y4, Y1, Y1
	// j = 2
	VMOVUPD 128(R10), Y2
	VMOVUPD 160(R10), Y3
	VMULPD Y2, Y8, Y4
	VMULPD Y3, Y12, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD Y4, Y0, Y0
	VMULPD Y3, Y8, Y4
	VMULPD Y2, Y12, Y5
	VADDPD Y5, Y4, Y4
	VADDPD Y4, Y1, Y1
	// j = 3
	VMOVUPD 192(R10), Y2
	VMOVUPD 224(R10), Y3
	VMULPD Y2, Y9, Y4
	VMULPD Y3, Y13, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD Y4, Y0, Y0
	VMULPD Y3, Y9, Y4
	VMULPD Y2, Y13, Y5
	VADDPD Y5, Y4, Y4
	VADDPD Y4, Y1, Y1
	ADDQ $256, R10

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, CX
	DECQ AX
	JG   stM4Loop
	DECQ R13
	JG   stM4RunLoop

stDone:
	VZEROUPPER
	RET

// func fftStage1ASM(re, im *float64, n int)
//
// Size-2 butterflies on adjacent pairs: out[2i] = x[2i]+x[2i+1],
// out[2i+1] = x[2i]-x[2i+1], two pairs per vector via duplicate-even /
// duplicate-odd shuffles and an alternating blend of sums and diffs.
TEXT ·fftStage1ASM(SB), NOSPLIT, $0-24
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ n+16(FP), BX
	XORQ AX, AX

s1Loop:
	CMPQ AX, BX
	JGE  s1Done
	VMOVUPD (DI)(AX*8), Y0
	VMOVDDUP Y0, Y1       // [r0, r0, r2, r2]
	VPERMILPD $15, Y0, Y2 // [r1, r1, r3, r3]
	VADDPD Y2, Y1, Y3     // sums
	VSUBPD Y2, Y1, Y4     // diffs
	VBLENDPD $10, Y4, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y0
	VMOVDDUP Y0, Y1
	VPERMILPD $15, Y0, Y2
	VADDPD Y2, Y1, Y3
	VSUBPD Y2, Y1, Y4
	VBLENDPD $10, Y4, Y3, Y3
	VMOVUPD Y3, (SI)(AX*8)
	ADDQ $4, AX
	JMP  s1Loop

s1Done:
	VZEROUPPER
	RET

// func fftStage2ASM(re, im, s2 *float64, n int)
//
// Size-4 butterflies. Two adjacent blocks (8 elements) are split into
// lo = [x0,x1,x4,x5] and hi = [x2,x3,x6,x7] with 128-bit permutes; the
// stage's two twiddles arrive pre-splatted as [w0,w1,w0,w1] in s2.
TEXT ·fftStage2ASM(SB), NOSPLIT, $0-32
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ s2+16(FP), DX
	MOVQ n+24(FP), BX
	VMOVUPD (DX), Y12   // wr = [w0r, w1r, w0r, w1r]
	VMOVUPD 32(DX), Y13 // wi = [w0i, w1i, w0i, w1i]
	XORQ AX, AX

s2Loop:
	CMPQ AX, BX
	JGE  s2Done
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2 // loR
	VPERM2F128 $0x31, Y1, Y0, Y3 // hiR (xr)
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VPERM2F128 $0x20, Y1, Y0, Y4 // loI
	VPERM2F128 $0x31, Y1, Y0, Y5 // hiI (xi)
	VMULPD Y12, Y3, Y6
	VMULPD Y13, Y5, Y7
	VSUBPD Y7, Y6, Y6 // tr = wr*xr - wi*xi
	VMULPD Y12, Y5, Y7
	VMULPD Y13, Y3, Y8
	VADDPD Y8, Y7, Y7 // ti = wr*xi + wi*xr
	VSUBPD Y6, Y2, Y3 // hiR' = loR - tr
	VADDPD Y6, Y2, Y2 // loR' = loR + tr
	VSUBPD Y7, Y4, Y5 // hiI' = loI - ti
	VADDPD Y7, Y4, Y4 // loI' = loI + ti
	VPERM2F128 $0x20, Y3, Y2, Y0
	VPERM2F128 $0x31, Y3, Y2, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y1, 32(SI)(AX*8)
	ADDQ $8, AX
	JMP  s2Loop

s2Done:
	VZEROUPPER
	RET

// func fftStageASM(re, im, tws *float64, n, size int)
//
// One generic butterfly stage of size >= 8: for every size-sized block,
// walk j in fours with lo/hi half-a-block apart (contiguous vectors) and
// the per-j twiddles streamed from tws (restarted per block).
TEXT ·fftStageASM(SB), NOSPLIT, $0-40
	MOVQ re+0(FP), DI
	MOVQ im+8(FP), SI
	MOVQ tws+16(FP), DX
	MOVQ n+24(FP), BX
	MOVQ size+32(FP), CX
	MOVQ CX, R8
	SHRQ $1, R8 // half
	MOVQ R8, R9
	SHLQ $3, R9 // half*8 bytes
	XORQ AX, AX // block base (elements)

gsOuter:
	CMPQ AX, BX
	JGE  gsDone
	MOVQ DX, R10           // twiddle stream restarts per block
	LEAQ (DI)(AX*8), R11   // &re[lo]
	LEAQ (SI)(AX*8), R12   // &im[lo]
	XORQ R13, R13          // j

gsInner:
	VMOVUPD (R10), Y12   // wr
	VMOVUPD 32(R10), Y13 // wi
	ADDQ $64, R10
	VMOVUPD (R11)(R9*1), Y0 // xr = re[hi]
	VMOVUPD (R12)(R9*1), Y1 // xi = im[hi]
	VMOVUPD (R11), Y2       // re[lo]
	VMOVUPD (R12), Y3       // im[lo]
	VMULPD Y12, Y0, Y4
	VMULPD Y13, Y1, Y5
	VSUBPD Y5, Y4, Y4 // tr = wr*xr - wi*xi
	VMULPD Y12, Y1, Y5
	VMULPD Y13, Y0, Y6
	VADDPD Y6, Y5, Y5 // ti = wr*xi + wi*xr
	VSUBPD Y4, Y2, Y0 // re[hi] = re[lo] - tr
	VSUBPD Y5, Y3, Y1 // im[hi] = im[lo] - ti
	VADDPD Y4, Y2, Y2 // re[lo] += tr
	VADDPD Y5, Y3, Y3 // im[lo] += ti
	VMOVUPD Y0, (R11)(R9*1)
	VMOVUPD Y1, (R12)(R9*1)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, (R12)
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $4, R13
	CMPQ R13, R8
	JLT  gsInner

	ADDQ CX, AX
	JMP  gsOuter

gsDone:
	VZEROUPPER
	RET
