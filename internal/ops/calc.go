package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/qerr"
)

// CalcKind enumerates the element-wise arithmetic operators.
type CalcKind uint8

const (
	// CalcAdd computes a + b per element.
	CalcAdd CalcKind = iota
	// CalcSub computes a - b per element (modulo 2^64).
	CalcSub
	// CalcMul computes a * b per element (low 64 bits).
	CalcMul
)

func (c CalcKind) String() string {
	switch c {
	case CalcAdd:
		return "+"
	case CalcSub:
		return "-"
	case CalcMul:
		return "*"
	default:
		return "?"
	}
}

// Eval applies the operator to a pair of scalars.
func (c CalcKind) Eval(x, y uint64) uint64 {
	switch c {
	case CalcAdd:
		return x + y
	case CalcSub:
		return x - y
	case CalcMul:
		return x * y
	default:
		return 0
	}
}

// CalcBinary computes the element-wise combination of two equal-length
// columns (e.g. lo_extendedprice * lo_discount for SSB Q1.x, or
// lo_revenue - lo_supplycost for Q4.x), streaming both inputs in lockstep
// through the de/re-compression wrapper. An undefined op is an
// ErrInvalidSchema error.
func (rt Runtime) CalcBinary(op CalcKind, a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	if op > CalcMul {
		return nil, qerr.Tag(fmt.Errorf("ops: calc: undefined arithmetic kind %d", op), qerr.ErrInvalidSchema)
	}
	if a.N() != b.N() {
		return nil, fmt.Errorf("ops: calc: inputs have %d and %d elements", a.N(), b.N())
	}
	return rt.mapCols("calc", a, b, out, func(va, vb, dst []uint64) error {
		calcKernel(op, va, vb, dst)
		return nil
	})
}

func calcKernel(op CalcKind, a, b, stage []uint64) {
	switch op {
	case CalcAdd:
		for i := range a {
			stage[i] = a[i] + b[i]
		}
	case CalcSub:
		for i := range a {
			stage[i] = a[i] - b[i]
		}
	case CalcMul:
		for i := range a {
			stage[i] = a[i] * b[i]
		}
	}
}
