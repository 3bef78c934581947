// Package core implements the holistic compression-enabled processing model
// that is the paper's primary contribution (§3): operator-at-a-time query
// execution plans in which every base column and every materialized
// intermediate carries its own lightweight compression format, chosen
// independently per column (design principles DP1–DP4).
//
// A Plan is a DAG of MonetDB-style operators over named columns, assembled
// with a Builder. An Engine owns the base data (DB), an engine-wide worker
// budget shared by every concurrently executing query, and an optional
// admission gate. Engine.Prepare compiles a plan once — per-column formats
// resolved explicitly, uniformly, or cost-based; morph insertions and
// kernel dispatch bound into one physical operator per node (physop.go) —
// and Prepared.Execute runs it under a context.Context on the DAG scheduler
// (sched.go; sequential execution is that scheduler with one worker),
// accounting the memory footprint and runtime that the paper's experiments
// report. Results are byte-identical at every parallelism level and under
// any mix of concurrent queries.
package core

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/ops"
	"morphstore/internal/qerr"
)

// OpKind identifies a physical query operator of the plan DAG.
type OpKind uint8

const (
	// OpScan reads a base column.
	OpScan OpKind = iota
	// OpSelect emits positions matching a comparison predicate.
	OpSelect
	// OpBetween emits positions matching a range predicate.
	OpBetween
	// OpProject gathers data values at a list of positions.
	OpProject
	// OpIntersect intersects two sorted position lists.
	OpIntersect
	// OpMerge unions two sorted position lists.
	OpMerge
	// OpSemiJoin emits probe positions whose key exists on the build side.
	OpSemiJoin
	// OpJoinN1 is an N:1 equi-join emitting probe and build positions.
	OpJoinN1
	// OpGroupFirst groups by one key column (gids + extents).
	OpGroupFirst
	// OpGroupNext refines a grouping with another key column.
	OpGroupNext
	// OpSumWhole sums a whole column into a one-element column.
	OpSumWhole
	// OpSumGrouped sums a value column per group id.
	OpSumGrouped
	// OpCalc combines two columns element-wise.
	OpCalc
	// OpSelectStr emits positions matching a string predicate over a
	// dictionary-encoded column; the predicate is translated to ID space at
	// prepare time and executed by the integer select kernels.
	OpSelectStr
)

var opNames = map[OpKind]string{
	OpScan: "scan", OpSelect: "select", OpBetween: "between",
	OpProject: "project", OpIntersect: "intersect", OpMerge: "merge",
	OpSemiJoin: "semijoin", OpJoinN1: "join", OpGroupFirst: "group",
	OpGroupNext: "group_next", OpSumWhole: "sum", OpSumGrouped: "sum_grouped",
	OpCalc: "calc", OpSelectStr: "select_str",
}

// StrPredKind identifies the string-predicate flavor of an OpSelectStr node.
type StrPredKind uint8

const (
	// StrEq matches rows whose string equals the predicate value.
	StrEq StrPredKind = iota
	// StrIn matches rows whose string is one of the predicate values.
	StrIn
	// StrPrefix matches rows whose string starts with the predicate value.
	StrPrefix
)

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Node is one operator of a plan DAG.
type Node struct {
	id       int
	op       OpKind
	cmp      bitutil.CmpKind
	calc     ops.CalcKind
	val      uint64
	val2     uint64
	table    string
	column   string
	strKind  StrPredKind
	strVal   string
	strVals  []string
	inputs   []ColRef
	outNames []string // one per output
}

// ColRef identifies one output column of a node.
type ColRef struct {
	node *Node
	out  int
}

// Name returns the unique column name of the referenced output, which is the
// key WithFormats assigns formats by.
func (r ColRef) Name() string { return r.node.outNames[r.out] }

// valid reports whether the reference points at an actual node output.
func (r ColRef) valid() bool {
	return r.node != nil && r.out >= 0 && r.out < len(r.node.outNames)
}

// Plan is an executable operator DAG. Nodes are stored in topological order
// (the builder only references already-built nodes).
type Plan struct {
	nodes  []*Node
	sinks  []ColRef
	byName map[string]ColRef
	// randomAccessed records column names consumed via random access
	// (project data inputs); their formats are restricted per §4.2.
	randomAccessed map[string]bool
}

// Builder incrementally assembles a plan.
type Builder struct {
	p   *Plan
	err error
}

// NewBuilder returns an empty plan builder.
func NewBuilder() *Builder {
	return &Builder{p: &Plan{
		byName:         make(map[string]ColRef),
		randomAccessed: make(map[string]bool),
	}}
}

func (b *Builder) fail(format string, args ...any) ColRef {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return ColRef{}
}

func (b *Builder) add(n *Node, names ...string) []ColRef {
	if b.err != nil {
		return make([]ColRef, len(names))
	}
	for _, nm := range names {
		if nm == "" {
			b.fail("core: empty column name")
			return make([]ColRef, len(names))
		}
		if _, dup := b.p.byName[nm]; dup {
			b.fail("core: duplicate column name %q", nm)
			return make([]ColRef, len(names))
		}
	}
	for _, in := range n.inputs {
		if !in.valid() {
			b.fail("core: invalid input reference for %q", names[0])
			return make([]ColRef, len(names))
		}
	}
	n.id = len(b.p.nodes)
	n.outNames = names
	b.p.nodes = append(b.p.nodes, n)
	refs := make([]ColRef, len(names))
	for i := range names {
		refs[i] = ColRef{node: n, out: i}
		b.p.byName[names[i]] = refs[i]
	}
	return refs
}

// Scan reads base column table.column; its name is "table.column".
func (b *Builder) Scan(table, column string) ColRef {
	name := table + "." + column
	if ref, ok := b.p.byName[name]; ok {
		return ref // reuse: scanning the same base column twice is one scan
	}
	return b.add(&Node{op: OpScan, table: table, column: column}, name)[0]
}

// Select emits the positions of in matching `element cmp val`. An undefined
// cmp fails the build with an ErrInvalidSchema error.
func (b *Builder) Select(name string, in ColRef, cmp bitutil.CmpKind, val uint64) ColRef {
	if _, _, _, ok := cmp.Range(val); !ok {
		return b.fail("core: select %q: undefined comparison kind %d: %w", name, cmp, qerr.ErrInvalidSchema)
	}
	return b.add(&Node{op: OpSelect, cmp: cmp, val: val, inputs: []ColRef{in}}, name)[0]
}

// Between emits the positions of in with lo <= element <= hi.
func (b *Builder) Between(name string, in ColRef, lo, hi uint64) ColRef {
	return b.add(&Node{op: OpBetween, val: lo, val2: hi, inputs: []ColRef{in}}, name)[0]
}

// SelectStrEq emits the positions of in — the scan of a dictionary-encoded
// string column — whose string equals val. The predicate is translated to
// dictionary-ID space when the plan is prepared and executed by the integer
// select kernels; preparing fails if in is not the scan of a string column.
func (b *Builder) SelectStrEq(name string, in ColRef, val string) ColRef {
	return b.add(&Node{op: OpSelectStr, strKind: StrEq, strVal: val, inputs: []ColRef{in}}, name)[0]
}

// SelectStrIn emits the positions of in whose string is one of vals, under
// the same dictionary-translation contract as SelectStrEq.
func (b *Builder) SelectStrIn(name string, in ColRef, vals ...string) ColRef {
	return b.add(&Node{op: OpSelectStr, strKind: StrIn, strVals: vals, inputs: []ColRef{in}}, name)[0]
}

// SelectStrPrefix emits the positions of in whose string starts with prefix,
// under the same dictionary-translation contract as SelectStrEq. When the
// matching strings' IDs are contiguous the prefix runs as one range select,
// otherwise as a membership select over the matching IDs.
func (b *Builder) SelectStrPrefix(name string, in ColRef, prefix string) ColRef {
	return b.add(&Node{op: OpSelectStr, strKind: StrPrefix, strVal: prefix, inputs: []ColRef{in}}, name)[0]
}

// Project gathers data values at the given positions. The data column is
// registered as randomly accessed, restricting its format candidates.
func (b *Builder) Project(name string, data, pos ColRef) ColRef {
	if data.valid() {
		b.p.randomAccessed[data.Name()] = true
	}
	return b.add(&Node{op: OpProject, inputs: []ColRef{data, pos}}, name)[0]
}

// Intersect intersects two sorted position lists.
func (b *Builder) Intersect(name string, x, y ColRef) ColRef {
	return b.add(&Node{op: OpIntersect, inputs: []ColRef{x, y}}, name)[0]
}

// Merge unions two sorted position lists.
func (b *Builder) Merge(name string, x, y ColRef) ColRef {
	return b.add(&Node{op: OpMerge, inputs: []ColRef{x, y}}, name)[0]
}

// SemiJoin emits probe positions whose key occurs in build.
func (b *Builder) SemiJoin(name string, probe, build ColRef) ColRef {
	return b.add(&Node{op: OpSemiJoin, inputs: []ColRef{probe, build}}, name)[0]
}

// JoinN1 equi-joins probe keys against unique build keys, producing the
// matching probe positions (name/probe) and build positions (name/build).
func (b *Builder) JoinN1(name string, probe, build ColRef) (probePos, buildPos ColRef) {
	refs := b.add(&Node{op: OpJoinN1, inputs: []ColRef{probe, build}},
		name+"/probe", name+"/build")
	return refs[0], refs[1]
}

// GroupFirst groups by a key column, producing per-row group ids
// (name/gids) and per-group representative positions (name/extents).
func (b *Builder) GroupFirst(name string, keys ColRef) (gids, extents ColRef) {
	refs := b.add(&Node{op: OpGroupFirst, inputs: []ColRef{keys}},
		name+"/gids", name+"/extents")
	return refs[0], refs[1]
}

// GroupNext refines an existing grouping with an additional key column.
func (b *Builder) GroupNext(name string, prevGids, keys ColRef) (gids, extents ColRef) {
	refs := b.add(&Node{op: OpGroupNext, inputs: []ColRef{prevGids, keys}},
		name+"/gids", name+"/extents")
	return refs[0], refs[1]
}

// SumWhole sums a column into a one-element column.
func (b *Builder) SumWhole(name string, vals ColRef) ColRef {
	return b.add(&Node{op: OpSumWhole, inputs: []ColRef{vals}}, name)[0]
}

// SumGrouped sums vals per group id; extents supplies the group count.
func (b *Builder) SumGrouped(name string, gids, extents, vals ColRef) ColRef {
	return b.add(&Node{op: OpSumGrouped, inputs: []ColRef{gids, extents, vals}}, name)[0]
}

// Calc combines two columns element-wise. An undefined op fails the build
// with an ErrInvalidSchema error.
func (b *Builder) Calc(name string, op ops.CalcKind, x, y ColRef) ColRef {
	if op > ops.CalcMul {
		return b.fail("core: calc %q: undefined arithmetic kind %d: %w", name, op, qerr.ErrInvalidSchema)
	}
	return b.add(&Node{op: OpCalc, calc: op, inputs: []ColRef{x, y}}, name)[0]
}

// Result marks ref as a query result column. Result columns are always
// materialized uncompressed (§3.3: clients cannot interpret compressed data).
func (b *Builder) Result(ref ColRef) {
	if b.err != nil {
		return
	}
	if !ref.valid() {
		b.fail("core: invalid result reference")
		return
	}
	b.p.sinks = append(b.p.sinks, ref)
}

// Build finalizes the plan.
func (b *Builder) Build() (*Plan, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.p.sinks) == 0 {
		return nil, fmt.Errorf("core: plan has no result columns")
	}
	return b.p, nil
}

// sinkSet returns the names of all result columns.
func (p *Plan) sinkSet() map[string]bool {
	s := make(map[string]bool, len(p.sinks))
	for _, ref := range p.sinks {
		s[ref.Name()] = true
	}
	return s
}

// BaseColumns returns the distinct "table.column" names scanned by the plan.
func (p *Plan) BaseColumns() []string {
	var out []string
	for _, n := range p.nodes {
		if n.op == OpScan {
			out = append(out, n.outNames[0])
		}
	}
	return out
}

// IntermediateNames returns the names of all configurable intermediates:
// every non-scan output that is not a result column.
func (p *Plan) IntermediateNames() []string {
	sinks := p.sinkSet()
	var out []string
	for _, n := range p.nodes {
		if n.op == OpScan {
			continue
		}
		for _, nm := range n.outNames {
			if !sinks[nm] {
				out = append(out, nm)
			}
		}
	}
	return out
}

// RandomAccessed reports whether the named column is consumed via random
// access (as a project data input).
func (p *Plan) RandomAccessed(name string) bool { return p.randomAccessed[name] }
