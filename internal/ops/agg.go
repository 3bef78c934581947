package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// SumAuto computes the sum of all elements (modulo 2^64) and returns it both
// as a scalar and as a single-element column. Query result columns are always
// uncompressed (§3.3), so no output format is taken. The input's descriptor
// picks the kernel (sumKernel).
func (rt Runtime) SumAuto(in *columns.Column) (uint64, *columns.Column, error) {
	if err := checkCols(in); err != nil {
		return 0, nil, err
	}
	total, err := rt.reduce("sum", in, nil, 1, sumKernel(in))
	if err != nil {
		return 0, nil, err
	}
	return total[0], columns.FromValues(total), nil
}

// sumKernel picks the sum kernel for the input's format:
//
//	RLE                           sumRLE on the runs
//	every other format and width  sumStreamed on unpacked blocks
//
// BenchmarkDirectKernels is the evidence for the RLE line.
func sumKernel(in *columns.Column) reduceKernel {
	if in.Desc().Kind == columns.RLE {
		return sumRLE(in)
	}
	return sumStreamed(in)
}

// sumStreamed is the generic sum: the morsel streams through the
// de/re-compression wrapper and each unpacked block is added up by a plain
// loop.
func sumStreamed(in *columns.Column) reduceKernel {
	return func(rt Runtime, acc []uint64, pt formats.Partition) error {
		return rt.streamCols(in, nil, pt, func(vals, _ []uint64, _ uint64) error {
			var t uint64
			for _, v := range vals {
				t += v
			}
			acc[0] += t
			return nil
		})
	}
}

// SumGrouped aggregates vals per group id: result[g] = sum of vals[i] where
// gids[i] == g, for g in [0, nGroups). The two inputs stream in lockstep;
// the result involves random writes and is therefore an uncompressed column
// (§4.2: random write access targets the query's result columns, which stay
// uncompressed anyway).
func (rt Runtime) SumGrouped(gids, vals *columns.Column, nGroups int) (*columns.Column, error) {
	if err := checkCols(gids, vals); err != nil {
		return nil, err
	}
	if gids.N() != vals.N() {
		return nil, fmt.Errorf("ops: grouped sum: gids has %d elements, vals %d", gids.N(), vals.N())
	}
	if nGroups < 0 {
		return nil, fmt.Errorf("ops: grouped sum: negative group count %d", nGroups)
	}
	sums, err := rt.reduce("grouped sum", gids, vals, nGroups, func(rt Runtime, acc []uint64, pt formats.Partition) error {
		return rt.streamCols(gids, vals, pt, func(gs, vs []uint64, _ uint64) error {
			return sumGroupedChunk(acc, gs, vs, nGroups)
		})
	})
	if err != nil {
		return nil, err
	}
	return columns.FromValues(sums), nil
}

// sumGroupedChunk accumulates one aligned chunk pair into sums, range
// checking every group id.
func sumGroupedChunk(sums, gs, vs []uint64, nGroups int) error {
	for i, g := range gs {
		if g >= uint64(nGroups) {
			return fmt.Errorf("group id %d out of range [0,%d)", g, nGroups)
		}
		sums[g] += vs[i]
	}
	return nil
}
