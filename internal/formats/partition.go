package formats

import (
	"fmt"

	"morphstore/internal/columns"
)

// This file implements the column-slicing half of MorphStore-Go's
// morsel-parallel processing: a column is split into contiguous,
// independently decodable element ranges ("morsels"), and a section reader
// decompresses exactly one such range. The block-based formats make this
// natural — every DynBP/DeltaBP/ForBP block decodes on its own (DeltaBP
// blocks carry their own base value), static BP maps positions to bit
// addresses directly, and the uncompressed format is a plain slice. RLE is
// the exception: a run boundary is only discoverable by scanning every
// preceding run, so RLE columns report themselves non-partitionable and the
// parallel operator drivers fall back to sequential execution.

// Partition is one contiguous element range of a column: the half-open
// logical range [Start, Start+Count).
type Partition struct {
	Start int
	Count int
}

// partitionAlign returns the element alignment that partition boundaries
// must respect for the format, or 0 if the format cannot be partitioned.
// Block-based formats align to their 512-element block; static BP aligns to
// the 64-value packing group so section readers keep word-aligned cursors.
func partitionAlign(kind columns.Kind) int { return lookup(kind).partitionAlign }

// MinMorsel is the smallest partition worth a worker goroutine: one
// cache-resident buffer of elements. Columns shorter than two morsels are
// not split — goroutine spawn, per-worker staging and stitching would cost
// more than the kernel work they parallelize.
const MinMorsel = BufferLen

// SplitColumn splits col into at most p contiguous partitions whose
// boundaries respect partitionAlign; every partition except the tail holds
// at least MinMorsel elements (the tail takes whatever remains). It returns
// nil when the format cannot be partitioned or when the column is too small
// to yield more than one aligned morsel — callers treat nil as "process
// sequentially".
func SplitColumn(col *columns.Column, p int) []Partition {
	return SplitRange(col.N(), p, partitionAlign(col.Desc().Kind))
}

// splitColumnsAligned splits two equally long columns at one set of shared
// boundaries that respect both formats' partition alignments (the operator
// pairs streamed in lockstep — calc inputs, group-id/value pairs — must cut
// both inputs at identical element offsets). Every alignment is a power of
// two dividing the 512-element block, so the shared alignment is simply the
// larger of the two. It returns nil when either format cannot be partitioned,
// when the lengths differ, or when the columns are too small to split.
func splitColumnsAligned(a, b *columns.Column, p int) []Partition {
	if a.N() != b.N() {
		return nil
	}
	alignA := partitionAlign(a.Desc().Kind)
	alignB := partitionAlign(b.Desc().Kind)
	if alignA == 0 || alignB == 0 {
		return nil
	}
	return SplitRange(a.N(), p, max(alignA, alignB))
}

// morselsPerWorker is the work-queue over-decomposition factor: the morsel
// splits cut a column into up to this many partitions per requested worker,
// so workers claiming morsels dynamically (in chunk-index order) rebalance
// when selectivity skew makes some morsels much cheaper than others, while
// the stitch overhead stays bounded by a small constant per worker.
const morselsPerWorker = 8

// SplitColumnMorsels splits col into work-queue morsels: up to
// morselsPerWorker*p contiguous partitions whose boundaries respect
// partitionAlign, each at least MinMorsel elements except the tail. Like
// SplitColumn it returns nil when the column cannot or need not be split;
// unlike SplitColumn the partition count intentionally exceeds the worker
// count so a dynamic work queue can rebalance skewed morsel costs.
func SplitColumnMorsels(col *columns.Column, p int) []Partition {
	if p <= 1 {
		return nil
	}
	return SplitColumn(col, p*morselsPerWorker)
}

// SplitColumnsAlignedMorsels is the dual-input form of SplitColumnMorsels:
// one shared set of work-queue morsel boundaries respecting both formats'
// partition alignments (see splitColumnsAligned).
func SplitColumnsAlignedMorsels(a, b *columns.Column, p int) []Partition {
	if p <= 1 {
		return nil
	}
	return splitColumnsAligned(a, b, p*morselsPerWorker)
}

// SplitRange cuts the element range [0, n) into at most p contiguous
// partitions on boundaries that are multiples of align, each at least
// MinMorsel elements except the tail; nil when the range is too small to
// split or p <= 1. It is the partitioning primitive behind SplitColumn,
// exported for callers partitioning a logical stream that is not (yet) a
// column, such as the benchmark's per-layer harness over a value slice.
func SplitRange(n, p, align int) []Partition {
	if align == 0 || p <= 1 || n < 2*MinMorsel {
		return nil
	}
	// Evenly sized chunks, rounded up to the alignment granularity and the
	// minimum morsel size.
	chunk := (n + p - 1) / p
	if chunk < MinMorsel {
		chunk = MinMorsel
	}
	chunk = (chunk + align - 1) / align * align
	parts := make([]Partition, 0, p)
	for start := 0; start < n; start += chunk {
		count := chunk
		if start+count > n {
			count = n - start
		}
		parts = append(parts, Partition{Start: start, Count: count})
	}
	if len(parts) <= 1 {
		return nil
	}
	return parts
}

// NewSectionReader returns a sequential Reader over the logical element
// range [start, start+count) of col. start must be a multiple of
// partitionAlign for the column's format, and for the block-based formats
// start+count must either be block-aligned too or reach past the compressed
// main part — exactly the boundaries SplitColumn produces.
func NewSectionReader(col *columns.Column, start, count int) (Reader, error) {
	f := lookup(col.Desc().Kind)
	if f.partitionAlign == 0 {
		return nil, fmt.Errorf("formats: %v columns cannot be partitioned", col.Desc())
	}
	if start < 0 || count < 0 || start+count > col.N() {
		return nil, fmt.Errorf("formats: section [%d,%d) out of range [0,%d)", start, start+count, col.N())
	}
	if start%f.partitionAlign != 0 {
		return nil, fmt.Errorf("formats: section start %d not aligned to %d", start, f.partitionAlign)
	}
	return f.section(col, start, count), nil
}
