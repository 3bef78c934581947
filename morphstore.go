// Package morphstore is a from-scratch Go implementation of MorphStore, the
// in-memory columnar analytical query engine with a holistic
// compression-enabled processing model (Damme et al., "MorphStore:
// Analytical Query Engine with a Holistic Compression-Enabled Processing
// Model", arXiv:2004.09350, 2020).
//
// The engine executes operator-at-a-time query plans over columns of
// unsigned 64-bit integers. Its distinguishing property is that every base
// column and every materialized intermediate result can carry its own
// lightweight integer compression format — static bit packing, block-wise
// binary packing (SIMD-BP512), DELTA and FOR cascades, or RLE — chosen
// independently per column, with operators integrating compression at four
// degrees: purely uncompressed processing, on-the-fly de/re-compression,
// specialized operators working directly on compressed data, and on-the-fly
// morphing between formats.
//
// This package is the public facade over the implementation packages:
//
//	internal/columns   column storage (compressed main part + remainder)
//	internal/formats   the compression format corpus
//	internal/morph     format morphing
//	internal/ops       physical query operators
//	internal/core      plans, format configurations, execution, search
//	internal/delta     writable-table delta stores, snapshots, remorph
//	internal/stats     data-characteristics collection
//	internal/costmodel gray-box cost model for format selection
//	internal/ssb       Star Schema Benchmark substrate
//
// # Quick start
//
//	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
//	col, _ := morphstore.Compress(vals, morphstore.DynBP)
//	eng := morphstore.NewEngine(nil)
//	pos, _ := eng.Select(ctx, col, morphstore.CmpGt, 3,
//		morphstore.WithOutput(morphstore.DeltaBP))
//
// Query plans compile once and execute concurrently under a context:
//
//	eng := morphstore.NewEngine(db, morphstore.WithParallelism(8))
//	q, _ := eng.Prepare(plan, morphstore.WithCostBasedFormats())
//	res, _ := q.Execute(ctx)
//
// See engine.go for the engine API and examples/ for complete programs.
package morphstore

import (
	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/costmodel"
	"morphstore/internal/formats"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/ssb"
	"morphstore/internal/stats"
)

// Column is a sequence of unsigned 64-bit integers materialized in exactly
// one (possibly compressed) format.
type Column = columns.Column

// FormatDesc describes a column's compression format.
type FormatDesc = columns.FormatDesc

// The supported compression formats. StaticBPWidth(b) requests static bit
// packing with an explicit width; StaticBP derives the width from the data.
var (
	// Uncompressed stores one 64-bit word per element.
	Uncompressed = columns.UncomprDesc
	// StaticBP is bit packing with one derived fixed width per column; the
	// only compressed format with random read access.
	StaticBP = columns.StaticBPDesc(0)
	// DynBP is block-wise binary packing over 512-element blocks (the
	// 64-bit SIMD-BP512 analog).
	DynBP = columns.DynBPDesc
	// DeltaBP cascades delta coding with DynBP; it excels on sorted data
	// such as the position lists produced by selections.
	DeltaBP = columns.DeltaBPDesc
	// ForBP cascades frame-of-reference coding with DynBP; it excels on
	// narrow ranges of large values.
	ForBP = columns.ForBPDesc
	// RLE is run-length encoding.
	RLE = columns.RLEDesc
)

// StaticBPWidth requests static bit packing with an explicit width.
func StaticBPWidth(bits uint) FormatDesc { return columns.StaticBPDesc(bits) }

// Formats returns the paper's five formats; AllFormats additionally
// includes the RLE extension.
func Formats() []FormatDesc { return formats.PaperDescs() }

// AllFormats returns every supported format.
func AllFormats() []FormatDesc { return formats.AllDescs() }

// FromValues wraps vals as an uncompressed column without copying.
func FromValues(vals []uint64) *Column { return columns.FromValues(vals) }

// Compress materializes vals as a new column in the requested format.
func Compress(vals []uint64, desc FormatDesc) (*Column, error) {
	return formats.Compress(vals, desc)
}

// Decompress expands a column into a fresh value slice.
func Decompress(col *Column) ([]uint64, error) { return formats.Decompress(col) }

// ConcatCompressed concatenates columns of one format into a single column
// holding their element streams back to back, byte-identical to compressing
// the concatenated streams monolithically — but built from block-granular
// copies of the parts' compressed blocks, with only per-seam fixups (DeltaBP
// first-block rebase, RLE adjacent-run merge, bit-stream shifts for
// misaligned static BP seams). It is the splice primitive behind the
// parallel operators' compressed stitch, exported for partition-at-rest use
// cases (assembling shard results without a decompression round trip).
func ConcatCompressed(desc FormatDesc, parts []*Column) (*Column, error) {
	return formats.ConcatCompressed(desc, parts)
}

// Morph re-represents a column in another format without materializing it
// uncompressed in main memory (direct morphing where available, block-wise
// streaming otherwise).
func Morph(col *Column, desc FormatDesc) (*Column, error) { return morph.Morph(col, desc) }

// CmpKind is a comparison operator for selections.
type CmpKind = bitutil.CmpKind

// Comparison operators.
const (
	CmpEq = bitutil.CmpEq
	CmpNe = bitutil.CmpNe
	CmpLt = bitutil.CmpLt
	CmpLe = bitutil.CmpLe
	CmpGt = bitutil.CmpGt
	CmpGe = bitutil.CmpGe
)

// CalcKind is an element-wise arithmetic operator.
type CalcKind = ops.CalcKind

// Arithmetic operators.
const (
	CalcAdd = ops.CalcAdd
	CalcSub = ops.CalcSub
	CalcMul = ops.CalcMul
)

// Profile holds the data characteristics driving format selection.
type Profile = stats.Profile

// Analyze collects the data characteristics of a value sequence.
func Analyze(vals []uint64) *Profile { return stats.Collect(vals) }

// EstimateBytes estimates the physical size of data with the given profile
// in the given format, using the gray-box cost model.
func EstimateBytes(p *Profile, desc FormatDesc) (int, error) {
	return costmodel.EstimateBytes(p, desc)
}

// SuggestFormat returns the format with the smallest estimated size among
// the candidates (the cost-based selection strategy of the paper's §5).
func SuggestFormat(p *Profile, candidates []FormatDesc) (FormatDesc, error) {
	return costmodel.ChooseBySize(p, candidates)
}

// Plan is an executable operator-at-a-time query plan.
type Plan = core.Plan

// PlanBuilder assembles plans; see core.Builder for the operator vocabulary.
type PlanBuilder = core.Builder

// ColRef names one intermediate column of a plan under construction.
type ColRef = core.ColRef

// NewPlanBuilder returns an empty plan builder.
func NewPlanBuilder() *PlanBuilder { return core.NewBuilder() }

// DB is a database of base tables.
type DB = core.DB

// NewDB returns an empty database.
func NewDB() *DB { return core.NewDB() }

// Result is a plan execution outcome with footprint/runtime accounting.
type Result = core.Result

// Assignment is a complete format combination (base columns and
// intermediates) for one plan.
type Assignment = core.Assignment

// CostBasedAssignment picks a format for every column of the plan with the
// gray-box cost model (footprint objective).
func CostBasedAssignment(p *Plan, db *DB) (*Assignment, error) {
	return core.CostBasedAssignment(p, db)
}

// FootprintSearch exhaustively determines the best and worst format
// combinations with respect to the memory footprint.
func FootprintSearch(p *Plan, db *DB) (best, worst *Assignment, err error) {
	return core.FootprintSearch(p, db)
}

// SSBData is a generated Star Schema Benchmark instance.
type SSBData = ssb.Data

// SSBQuery identifies one of the 13 SSB queries ("1.1" ... "4.3").
type SSBQuery = ssb.Query

// SSBQueries lists the 13 SSB queries in benchmark order.
var SSBQueries = ssb.Queries

// GenerateSSB deterministically generates a dictionary-encoded SSB instance
// at the given scale factor (SF 1 = 6 M lineorder rows).
func GenerateSSB(sf float64, seed int64) (*SSBData, error) { return ssb.Generate(sf, seed) }

// BuildSSBPlan constructs the operator-at-a-time plan of an SSB query.
func BuildSSBPlan(q SSBQuery, d *SSBData) (*Plan, error) { return ssb.BuildPlan(q, d.Dicts) }

// SSBRow is one canonicalized SSB result row.
type SSBRow = ssb.Row

// SSBReference computes an SSB query's ground-truth result row-wise.
func SSBReference(q SSBQuery, d *SSBData) ([]SSBRow, error) { return ssb.Reference(q, d) }

// ExtractSSBResult canonicalizes an engine result for comparison.
func ExtractSSBResult(q SSBQuery, res *Result) ([]SSBRow, error) {
	return ssb.ExtractResult(q, res)
}
