#include "textflag.h"

// The AVX-512 kernels behind kernels.go's dispatch. Each processes 8 values
// per step in one ZMM register. The range selects and the probe test a step,
// compress the passing lanes (VPCOMPRESSQ) to the bottom of a register, store
// the whole register at the output cursor, and advance the cursor by the
// popcount of the step's mask: the cursor never passes the input index, so a
// store never passes the input's length. The gathers test a step's positions
// against the column length first and return before the step's loads if one
// is out of range. The profile kernels count into per-lane histograms in
// memory, one copy per lane, so no two lanes of a step bump one counter.

// lanes holds 0..7, the step-local index of each lane.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func unpackAVX512(dst, src *uint64, steps int, width uint, ctl *[16]uint64)
//
// A step loads the width bytes of 8 values (a zero-masked byte load, so no
// byte past them is read), permutes into lane j the 8 bytes starting at the
// one holding value j's first bit, shifts the value down to bit 0 and masks
// it to width bits. The byte mask of the load and the value mask are both
// the low width bits.
TEXT ·unpackAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ steps+16(FP), BX
	MOVQ width+24(FP), CX
	MOVQ ctl+32(FP), AX
	VMOVDQU64 (AX), Z1   // byte permute
	VMOVDQU64 64(AX), Z2 // shifts
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVQ AX, K1
	VPBROADCASTQ AX, Z3
	TESTQ BX, BX
	JZ unpackDone

unpackLoop:
	VMOVDQU8.Z (SI), K1, Z0
	VPERMB Z0, Z1, Z0
	VPSRLVQ Z2, Z0, Z0
	VPANDQ Z3, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ CX, SI
	ADDQ $64, DI
	DECQ BX
	JNZ unpackLoop

unpackDone:
	VZEROUPPER
	RET

// func packAVX512(dst, src *uint64, steps int, width uint, ctl *packControl)
//
// The inverse of unpackAVX512. A step loads 8 values, masks each to width
// bits, shifts value j left by j·width mod 8 (VPSLLVQ), builds the width
// output bytes with the width's byte permutes (each zero-masked to the bytes
// it supplies) ORed together, and stores them through a byte mask of the low
// width bytes, so no byte past the step's output is written. The permutes'
// number picks one of three loops: one (widths that are multiples of 8), two
// (most widths) or up to four (widths 2, 3 and 5).
TEXT ·packAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ steps+16(FP), BX
	MOVQ width+24(FP), CX
	MOVQ ctl+32(FP), AX
	VMOVDQU64 (AX), Z10    // shifts
	VMOVDQU64 64(AX), Z11  // permute 0
	VMOVDQU64 128(AX), Z12 // permute 1
	VMOVDQU64 192(AX), Z13 // permute 2
	VMOVDQU64 256(AX), Z14 // permute 3
	KMOVQ 320(AX), K1      // their byte masks
	KMOVQ 328(AX), K2
	KMOVQ 336(AX), K3
	KMOVQ 344(AX), K4
	MOVQ 352(AX), R8       // the number of permutes
	MOVQ $1, DX
	SHLQ CX, DX
	DECQ DX
	KMOVQ DX, K7           // the store mask: the low width bytes
	VPBROADCASTQ DX, Z15   // the value mask: the low width bits
	TESTQ BX, BX
	JZ packDone
	CMPQ R8, $1
	JEQ pack1Loop
	CMPQ R8, $2
	JEQ pack2Loop

pack4Loop:
	VPANDQ (SI), Z15, Z0
	VPSLLVQ Z10, Z0, Z0
	VPERMB.Z Z0, Z11, K1, Z1
	VPERMB.Z Z0, Z12, K2, Z2
	VPERMB.Z Z0, Z13, K3, Z3
	VPERMB.Z Z0, Z14, K4, Z4
	VPTERNLOGQ $0xfe, Z4, Z3, Z2 // Z2 | Z3 | Z4
	VPORQ Z2, Z1, Z1
	VMOVDQU8 Z1, K7, (DI)
	ADDQ $64, SI
	ADDQ CX, DI
	DECQ BX
	JNZ pack4Loop
	JMP packDone

pack2Loop:
	VPANDQ (SI), Z15, Z0
	VPSLLVQ Z10, Z0, Z0
	VPERMB.Z Z0, Z11, K1, Z1
	VPERMB.Z Z0, Z12, K2, Z2
	VPORQ Z2, Z1, Z1
	VMOVDQU8 Z1, K7, (DI)
	ADDQ $64, SI
	ADDQ CX, DI
	DECQ BX
	JNZ pack2Loop
	JMP packDone

pack1Loop:
	VPANDQ (SI), Z15, Z0
	VPERMB Z0, Z11, Z1 // byte-aligned: no shift, no byte shared
	VMOVDQU8 Z1, K7, (DI)
	ADDQ $64, SI
	ADDQ CX, DI
	DECQ BX
	JNZ pack1Loop

packDone:
	VZEROUPPER
	RET

// func orVec(vals []uint64) uint64
//
// Four accumulators take 32 values per iteration, so the loads, not the ORs'
// latency, bound the loop; single 8-value steps finish, and the lanes fold
// into one word at the end.
TEXT ·orVec(SB), NOSPLIT, $0-32
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), CX
	SHRQ $3, CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

or4Loop:
	CMPQ CX, $4
	JB or1Loop
	VPORQ (SI), Z0, Z0
	VPORQ 64(SI), Z1, Z1
	VPORQ 128(SI), Z2, Z2
	VPORQ 192(SI), Z3, Z3
	ADDQ $256, SI
	SUBQ $4, CX
	JMP or4Loop

or1Loop:
	TESTQ CX, CX
	JZ orFold
	VPORQ (SI), Z0, Z0
	ADDQ $64, SI
	DECQ CX
	JMP or1Loop

orFold:
	VPTERNLOGQ $0xfe, Z3, Z2, Z1 // Z1 | Z2 | Z3
	VPORQ Z1, Z0, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VPORQ Y1, Y0, Y0
	VEXTRACTI64X2 $1, Y0, X1
	VPORQ X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPORQ X1, X0, X0
	VMOVQ X0, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func selectRangeVec(vals []uint64, base, lo, span uint64, out []uint64) int
TEXT ·selectRangeVec(SB), NOSPLIT, $0-80
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), CX
	SHRQ $3, CX
	MOVQ base+24(FP), AX
	VPBROADCASTQ AX, Z12
	VPADDQ lanes<>(SB), Z12, Z12 // positions of the step
	MOVQ lo+32(FP), AX
	VPBROADCASTQ AX, Z10
	MOVQ span+40(FP), AX
	VPBROADCASTQ AX, Z11
	MOVQ $8, AX
	VPBROADCASTQ AX, Z13
	MOVQ out_base+48(FP), DI
	XORQ AX, AX // output cursor
	TESTQ CX, CX
	JZ selectDone

selectLoop:
	VMOVDQU64 (SI), Z0
	VPSUBQ Z10, Z0, Z0
	VPCMPUQ $2, Z11, Z0, K1 // v-lo <= span
	VPCOMPRESSQ.Z Z12, K1, Z1
	VMOVDQU64 Z1, (DI)(AX*8)
	KMOVB K1, DX
	POPCNTL DX, DX
	ADDQ DX, AX
	VPADDQ Z13, Z12, Z12
	ADDQ $64, SI
	DECQ CX
	JNZ selectLoop

selectDone:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// func selectRangeAndVec(va, vb []uint64, base, loA, spanA, loB, spanB uint64, out []uint64) int
//
// The second test is masked by the first, which ANDs the two masks in the
// compare.
TEXT ·selectRangeAndVec(SB), NOSPLIT, $0-120
	MOVQ va_base+0(FP), SI
	MOVQ vb_base+24(FP), R10
	MOVQ va_len+8(FP), CX
	SHRQ $3, CX
	MOVQ base+48(FP), AX
	VPBROADCASTQ AX, Z12
	VPADDQ lanes<>(SB), Z12, Z12
	MOVQ loA+56(FP), AX
	VPBROADCASTQ AX, Z10
	MOVQ spanA+64(FP), AX
	VPBROADCASTQ AX, Z11
	MOVQ loB+72(FP), AX
	VPBROADCASTQ AX, Z14
	MOVQ spanB+80(FP), AX
	VPBROADCASTQ AX, Z15
	MOVQ $8, AX
	VPBROADCASTQ AX, Z13
	MOVQ out_base+88(FP), DI
	XORQ AX, AX
	TESTQ CX, CX
	JZ andDone

andLoop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (R10), Z1
	VPSUBQ Z10, Z0, Z0
	VPSUBQ Z14, Z1, Z1
	VPCMPUQ $2, Z11, Z0, K1     // a-loA <= spanA
	VPCMPUQ $2, Z15, Z1, K1, K2 // and b-loB <= spanB
	VPCOMPRESSQ.Z Z12, K2, Z2
	VMOVDQU64 Z2, (DI)(AX*8)
	KMOVB K2, DX
	POPCNTL DX, DX
	ADDQ DX, AX
	VPADDQ Z13, Z12, Z12
	ADDQ $64, SI
	ADDQ $64, R10
	DECQ CX
	JNZ andLoop

andDone:
	MOVQ AX, ret+112(FP)
	VZEROUPPER
	RET

// func probeDenseVec(vals []uint64, base, lo, span uint64, tab []uint32, outP, outB []uint64) int
//
// The gather is masked to the lanes with v-lo <= span, so it reads only slots
// of the table; the masked-off lanes stay 0, which is an absent key.
TEXT ·probeDenseVec(SB), NOSPLIT, $0-128
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), CX
	SHRQ $3, CX
	MOVQ base+24(FP), AX
	VPBROADCASTQ AX, Z12
	VPADDQ lanes<>(SB), Z12, Z12
	MOVQ lo+32(FP), AX
	VPBROADCASTQ AX, Z10
	MOVQ span+40(FP), AX
	VPBROADCASTQ AX, Z11
	MOVQ tab_base+48(FP), R8
	MOVQ outP_base+72(FP), DI
	MOVQ outB_base+96(FP), R9
	MOVQ $8, AX
	VPBROADCASTQ AX, Z13
	VPTERNLOGQ $0xff, Z14, Z14, Z14 // all ones: -1 in every lane
	XORQ AX, AX
	TESTQ CX, CX
	JZ probeDone

probeLoop:
	VMOVDQU64 (SI), Z0
	VPSUBQ Z10, Z0, Z0
	VPCMPUQ $2, Z11, Z0, K1 // v-lo <= span
	VPXORQ Z1, Z1, Z1
	VPGATHERQD (R8)(Z0*4), K1, Y1 // tab[v-lo]; clears K1
	VPMOVZXDQ Y1, Z1
	VPTESTMQ Z1, Z1, K2 // a build match: the slot is not 0
	VPADDQ Z14, Z1, Z1  // its build index
	VPCOMPRESSQ.Z Z12, K2, Z2
	VPCOMPRESSQ.Z Z1, K2, Z3
	VMOVDQU64 Z2, (DI)(AX*8)
	VMOVDQU64 Z3, (R9)(AX*8)
	KMOVB K2, DX
	POPCNTL DX, DX
	ADDQ DX, AX
	VPADDQ Z13, Z12, Z12
	ADDQ $64, SI
	DECQ CX
	JNZ probeLoop

probeDone:
	MOVQ AX, ret+120(FP)
	VZEROUPPER
	RET

// func gatherBitsVec(dst, words, idx []uint64, width uint, n uint64) int
//
// The field of position p starts at bit p·width: in word p·width>>6, at
// offset p·width&63. A step gathers that word and the next, clamped to the
// last word as Get clamps it, shifts the first right by the offset and the
// second left by 64 - offset (VPSLLVQ gives 0 for a shift of 64, so at
// offset 0 the next word drops out), ORs them and masks to width bits.
TEXT ·gatherBitsVec(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ words_base+24(FP), R8
	MOVQ words_len+32(FP), AX
	DECQ AX
	VPBROADCASTQ AX, Z10 // the last word
	MOVQ idx_base+48(FP), SI
	MOVQ idx_len+56(FP), CX
	SHRQ $3, CX
	MOVQ width+72(FP), DX
	VPBROADCASTQ DX, Z11
	MOVQ $64, AX
	SUBQ DX, AX
	VPBROADCASTQ AX, Z12
	VPTERNLOGQ $0xff, Z13, Z13, Z13
	VPSRLVQ Z12, Z13, Z13 // the value mask: the low width bits
	MOVQ n+80(FP), AX
	VPBROADCASTQ AX, Z14
	MOVQ $63, AX
	VPBROADCASTQ AX, Z15
	MOVQ $1, AX
	VPBROADCASTQ AX, Z16
	MOVQ $64, AX
	VPBROADCASTQ AX, Z17
	XORQ AX, AX // positions gathered
	TESTQ CX, CX
	JZ bitsDone

bitsLoop:
	VMOVDQU64 (SI)(AX*8), Z0
	VPCMPUQ $5, Z14, Z0, K1 // p >= n
	KORTESTB K1, K1
	JNZ bitsDone
	VPMULLQ Z11, Z0, Z1 // bit position
	VPSRLQ $6, Z1, Z2   // word
	VPANDQ Z15, Z1, Z3  // offset
	VPADDQ Z16, Z2, Z4
	VPMINUQ Z10, Z4, Z4 // the next word, clamped to the last
	KXNORB K2, K2, K2
	KXNORB K3, K3, K3
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPGATHERQQ (R8)(Z2*8), K2, Z5
	VPGATHERQQ (R8)(Z4*8), K3, Z6
	VPSUBQ Z3, Z17, Z7
	VPSRLVQ Z3, Z5, Z5
	VPSLLVQ Z7, Z6, Z6
	VPORQ Z6, Z5, Z5
	VPANDQ Z13, Z5, Z5
	VMOVDQU64 Z5, (DI)(AX*8)
	ADDQ $8, AX
	DECQ CX
	JNZ bitsLoop

bitsDone:
	MOVQ AX, ret+88(FP)
	VZEROUPPER
	RET

// func gatherWordsVec(dst, words, idx []uint64) int
TEXT ·gatherWordsVec(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ words_base+24(FP), R8
	MOVQ words_len+32(FP), AX
	VPBROADCASTQ AX, Z14
	MOVQ idx_base+48(FP), SI
	MOVQ idx_len+56(FP), CX
	SHRQ $3, CX
	XORQ AX, AX // positions gathered
	TESTQ CX, CX
	JZ wordsDone

wordsLoop:
	VMOVDQU64 (SI)(AX*8), Z0
	VPCMPUQ $5, Z14, Z0, K1 // p >= len(words)
	KORTESTB K1, K1
	JNZ wordsDone
	KXNORB K2, K2, K2
	VPXORQ Z1, Z1, Z1
	VPGATHERQQ (R8)(Z0*8), K2, Z1
	VMOVDQU64 Z1, (DI)(AX*8)
	ADDQ $8, AX
	DECQ CX
	JNZ wordsLoop

wordsDone:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// histLanes holds j·65 + 64 for lane j: the index, in a [8][65]uint64 of
// per-lane histograms, of lane j's bucket 64. A value with n leading zeros
// has bit length 64-n, so its bucket is this minus n.
DATA histLanes<>+0(SB)/8, $64
DATA histLanes<>+8(SB)/8, $129
DATA histLanes<>+16(SB)/8, $194
DATA histLanes<>+24(SB)/8, $259
DATA histLanes<>+32(SB)/8, $324
DATA histLanes<>+40(SB)/8, $389
DATA histLanes<>+48(SB)/8, $454
DATA histLanes<>+56(SB)/8, $519
GLOBL histLanes<>(SB), RODATA|NOPTR, $64

// BUMP8 increments the 8 histogram counters whose indices the lanes of the
// ZMM register z hold, in the table at DI, extracting the lanes through the
// XMM register x (z's low 128 bits) and the scratch XMM register t.
// Extracting beats storing the vector and reloading its lanes: the reloads
// would wait on the store.
#define BUMP8(z, x, t) \
	VMOVQ x, AX ; \
	VPEXTRQ $1, x, BX ; \
	VEXTRACTI64X2 $1, z, t ; \
	VMOVQ t, DX ; \
	VPEXTRQ $1, t, R8 ; \
	INCQ (DI)(AX*8) ; \
	INCQ (DI)(BX*8) ; \
	INCQ (DI)(DX*8) ; \
	INCQ (DI)(R8*8) ; \
	VEXTRACTI64X2 $2, z, t ; \
	VMOVQ t, AX ; \
	VPEXTRQ $1, t, BX ; \
	VEXTRACTI64X2 $3, z, t ; \
	VMOVQ t, DX ; \
	VPEXTRQ $1, t, R8 ; \
	INCQ (DI)(AX*8) ; \
	INCQ (DI)(BX*8) ; \
	INCQ (DI)(DX*8) ; \
	INCQ (DI)(R8*8)

// func profileVec(vals []uint64, prev uint64, hist *[2][8][65]uint64, mm *[16]uint64) (descents, changes int)
//
// A step takes the previous value of each lane from the step before
// (VALIGNQ: lane 0 gets the last lane of the previous step, lane j>0 lane
// j-1 of this one) and bumps two per-lane histograms: the bit length of the
// value in hist[0] and of its delta to the previous value in hist[1]. The
// running minimum and maximum per lane go to mm[0:8] and mm[8:16].
TEXT ·profileVec(SB), NOSPLIT, $0-64
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), CX
	SHRQ $3, CX
	MOVQ prev+24(FP), AX
	VPBROADCASTQ AX, Z1 // the previous step: its last lane is prev
	MOVQ hist+32(FP), DI
	VMOVDQU64 histLanes<>(SB), Z10
	MOVQ $520, AX
	VPBROADCASTQ AX, Z11
	VPADDQ Z10, Z11, Z11 // the same in hist[1]
	VPTERNLOGQ $0xff, Z12, Z12, Z12 // minimum
	VPXORQ Z13, Z13, Z13            // maximum
	XORQ R9, R9                     // descents
	XORQ R10, R10                   // changes
	TESTQ CX, CX
	JZ profileDone

profileLoop:
	VMOVDQU64 (SI), Z0
	VALIGNQ $7, Z1, Z0, Z2 // previous values
	VPMINUQ Z0, Z12, Z12
	VPMAXUQ Z0, Z13, Z13
	VPCMPUQ $1, Z2, Z0, K1 // v < prev
	VPCMPUQ $4, Z2, Z0, K2 // v != prev
	VPSUBQ Z2, Z0, Z3      // the wrap-around delta
	VPLZCNTQ Z0, Z4
	VPLZCNTQ Z3, Z5
	VPSUBQ Z4, Z10, Z4
	VPSUBQ Z5, Z11, Z5
	KMOVB K1, AX
	POPCNTL AX, AX
	ADDQ AX, R9
	KMOVB K2, AX
	POPCNTL AX, AX
	ADDQ AX, R10
	BUMP8(Z4, X4, X6)
	BUMP8(Z5, X5, X7)
	VMOVDQA64 Z0, Z1
	ADDQ $64, SI
	DECQ CX
	JNZ profileLoop

profileDone:
	MOVQ mm+40(FP), DI
	VMOVDQU64 Z12, (DI)
	VMOVDQU64 Z13, 64(DI)
	MOVQ R9, descents+48(FP)
	MOVQ R10, changes+56(FP)
	VZEROUPPER
	RET

// func offsetHistVec(vals []uint64, ref uint64, hist *[8][65]uint64)
//
// Bumps the per-lane histogram of the bit lengths of v-ref.
TEXT ·offsetHistVec(SB), NOSPLIT, $0-40
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), CX
	SHRQ $3, CX
	MOVQ ref+24(FP), AX
	VPBROADCASTQ AX, Z9
	MOVQ hist+32(FP), DI
	VMOVDQU64 histLanes<>(SB), Z10
	TESTQ CX, CX
	JZ offsetDone

offsetLoop:
	VMOVDQU64 (SI), Z0
	VPSUBQ Z9, Z0, Z0
	VPLZCNTQ Z0, Z0
	VPSUBQ Z0, Z10, Z0
	BUMP8(Z0, X0, X6)
	ADDQ $64, SI
	DECQ CX
	JNZ offsetLoop

offsetDone:
	VZEROUPPER
	RET
