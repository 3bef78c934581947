// Command gen emits packed_gen.go: fully unrolled bit-packing kernels, one
// pair of pack/unpack functions per bit width. 64 values of width w occupy
// exactly w words, so each kernel processes one such group with straight-line
// code and compile-time-constant shifts — the pure-Go counterpart of the
// per-width kernel specialization in SIMD-BP128/512 implementations.
//
// Run via: go generate ./internal/bitutil
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

func main() {
	var b bytes.Buffer
	fmt.Fprintln(&b, "// Code generated by internal/bitutil/gen. DO NOT EDIT.")
	fmt.Fprintln(&b, "")
	fmt.Fprintln(&b, "package bitutil")
	fmt.Fprintln(&b, "")

	// Dispatch. The unpack is a switch of direct calls, not a table of
	// function values: escape analysis cannot see through a call of a
	// function value and would move every dst to the heap, so the portable
	// gather's group cache could not live on its stack.
	fmt.Fprintln(&b, "// unpack64 decodes one group of 64 values of width 1..63 from w packed")
	fmt.Fprintln(&b, "// words with the width's unrolled kernel. Widths 0 and 64 are handled")
	fmt.Fprintln(&b, "// separately.")
	fmt.Fprintln(&b, "func unpack64(src, dst []uint64, width uint) {")
	fmt.Fprintln(&b, "\tswitch width {")
	for w := 1; w <= 63; w++ {
		fmt.Fprintf(&b, "\tcase %d:\n\t\tunpack64w%d(src, dst)\n", w, w)
	}
	fmt.Fprintln(&b, "\t}")
	fmt.Fprintln(&b, "}")
	fmt.Fprintln(&b, "")
	fmt.Fprintln(&b, "// pack64 holds the unrolled inverse kernels.")
	fmt.Fprintln(&b, "var pack64 = [65]func(src, dst []uint64){")
	for w := 1; w <= 63; w++ {
		fmt.Fprintf(&b, "\t%d: pack64w%d,\n", w, w)
	}
	fmt.Fprintln(&b, "}")

	for w := 1; w <= 63; w++ {
		emitUnpack(&b, w)
		emitPack(&b, w)
	}

	// gofmt the output, so regenerating reproduces the checked-in file byte
	// for byte (CI diffs the two).
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("packed_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// emitUnpack writes the unrolled decoder for width w: dst[i] gets bits
// [i*w, (i+1)*w) of the group's word stream.
func emitUnpack(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, "\nfunc unpack64w%d(src, dst []uint64) {\n", w)
	fmt.Fprintf(b, "\t_ = src[%d]\n", w-1)
	fmt.Fprintln(b, "\t_ = dst[63]")
	mask := maskLit(w)
	for i := 0; i < 64; i++ {
		bit := i * w
		word := bit / 64
		shift := bit % 64
		if shift+w <= 64 {
			if shift == 0 && w == 64 {
				fmt.Fprintf(b, "\tdst[%d] = src[%d]\n", i, word)
			} else {
				fmt.Fprintf(b, "\tdst[%d] = (src[%d] >> %d) & %s\n", i, word, shift, mask)
			}
		} else {
			lo := 64 - shift
			fmt.Fprintf(b, "\tdst[%d] = (src[%d]>>%d | src[%d]<<%d) & %s\n",
				i, word, shift, word+1, lo, mask)
		}
	}
	fmt.Fprintln(b, "}")
}

// emitPack writes the unrolled encoder for width w: each output word is the
// OR of the value fragments that land in it. Values must already fit in w
// bits (the writers mask beforehand).
func emitPack(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, "\nfunc pack64w%d(src, dst []uint64) {\n", w)
	fmt.Fprintln(b, "\t_ = src[63]")
	fmt.Fprintf(b, "\t_ = dst[%d]\n", w-1)
	// For each output word, gather contributions.
	for word := 0; word < w; word++ {
		var parts []string
		mask := maskLit(w)
		for i := 0; i < 64; i++ {
			bit := i * w
			end := bit + w
			if end <= word*64 || bit >= (word+1)*64 {
				continue
			}
			off := bit - word*64
			switch {
			case off == 0:
				parts = append(parts, fmt.Sprintf("(src[%d]&%s)", i, mask))
			case off > 0:
				parts = append(parts, fmt.Sprintf("(src[%d]&%s)<<%d", i, mask, off))
			default:
				parts = append(parts, fmt.Sprintf("(src[%d]&%s)>>%d", i, mask, -off))
			}
		}
		fmt.Fprintf(b, "\tdst[%d] = %s\n", word, join(parts))
	}
	fmt.Fprintln(b, "}")
}

func join(parts []string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += " | " + p
	}
	return out
}

func maskLit(w int) string {
	if w == 64 {
		return "^uint64(0)"
	}
	return fmt.Sprintf("%#x", (uint64(1)<<uint(w))-1)
}
