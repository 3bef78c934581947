package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/vector"
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
// through the de/re-compression wrapper.
func (rt Runtime) CalcBinary(op CalcKind, a, b *columns.Column, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	if a.N() != b.N() {
		return nil, fmt.Errorf("ops: calc: inputs have %d and %d elements", a.N(), b.N())
	}
	return rt.mapCols("calc", a, b, out, func(_ int, va, vb, dst []uint64) error {
		if style == vector.Vec512 {
			calcKernelVec(op, va, vb, dst)
		} else {
			calcKernelScalar(op, va, vb, dst)
		}
		return nil
	})
}

func calcKernelScalar(op CalcKind, a, b, stage []uint64) {
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

func calcKernelVec(op CalcKind, a, b, stage []uint64) {
	i := 0
	for ; i+vector.Lanes <= len(a); i += vector.Lanes {
		va, vb := vector.Load(a[i:]), vector.Load(b[i:])
		var vr vector.Vec
		switch op {
		case CalcAdd:
			vr = vector.Add(va, vb)
		case CalcSub:
			vr = vector.Sub(va, vb)
		case CalcMul:
			vr = vector.Mul(va, vb)
		}
		vr.Store(stage[i:])
	}
	for ; i < len(a); i++ {
		stage[i] = op.Eval(a[i], b[i])
	}
}
