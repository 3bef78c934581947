package ops

import (
	"context"
	"fmt"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
)

// TestOperatorsDrawFromTheLease: on a runtime with a lease, every operator's
// output words are a buffer the lease issued — so the engine can release the
// column when it dies — and everything else the operator took (scratch,
// staging, sections, tables) it has given back: once the outputs are put
// back too, nothing is out.
func TestOperatorsDrawFromTheLease(t *testing.T) {
	const n = 4 * parTestN // large enough to split and to stitch in sections at par 3
	vals := parTestValues(n)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = vals[i] % 37
	}
	dim := make([]uint64, 0, 40)
	for k := uint64(0); k < 40; k += 3 {
		dim = append(dim, k)
	}
	sparse := []uint64{3, 1 << 40, 17} // not dense: the hash tables
	type op struct {
		name string
		run  func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error)
	}
	one := func(c *columns.Column, err error) ([]*columns.Column, error) { return []*columns.Column{c}, err }
	two := func(a, b *columns.Column, err error) ([]*columns.Column, error) { return []*columns.Column{a, b}, err }
	for _, desc := range []columns.FormatDesc{columns.UncomprDesc, columns.StaticBPDesc(0), columns.DeltaBPDesc, columns.RLEDesc} {
		in, err := FixedRT(1).Project(columns.FromValues(vals), columns.FromValues(seq(n)), desc)
		if err != nil {
			t.Fatal(err)
		}
		k := columns.FromValues(keys)
		pos, err := FixedRT(1).SelectAuto(in, bitutil.CmpLt, 300, columns.UncomprDesc)
		if err != nil {
			t.Fatal(err)
		}
		ops := []op{
			{"select", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.SelectAuto(in, bitutil.CmpLt, 300, out))
			}},
			{"select and", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.SelectAnd(in, 0, 300, k, 5, 10, out))
			}},
			{"select in", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.SelectIn(in, []uint64{1, 7, 499}, out))
			}},
			{"project", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.Project(k, pos, out))
			}},
			{"calc", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.CalcBinary(CalcAdd, in, k, out))
			}},
			{"intersect", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.Intersect(pos, columns.FromValues(seq(n/2)), out))
			}},
			{"merge", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.Merge(pos, columns.FromValues(seq(n/2)), out))
			}},
			{"semijoin", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.SemiJoin(k, columns.FromValues(dim), out))
			}},
			{"semijoin sparse", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.SemiJoin(k, columns.FromValues(sparse), out))
			}},
			{"join", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return two(rt.JoinN1(k, in, out, out, 0))
			}},
			{"join sparse", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return two(rt.JoinN1(k, columns.FromValues(sparse), out, out, 0))
			}},
			{"group", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return two(rt.GroupFirst(k, out, out))
			}},
			{"group next", func(rt Runtime, out columns.FormatDesc) ([]*columns.Column, error) {
				return two(rt.GroupNext(k, in, out, out))
			}},
			{"sum", func(rt Runtime, _ columns.FormatDesc) ([]*columns.Column, error) {
				_, c, err := rt.SumAuto(in)
				return one(c, err)
			}},
			{"grouped sum", func(rt Runtime, _ columns.FormatDesc) ([]*columns.Column, error) {
				return one(rt.SumGrouped(k, in, 37))
			}},
		}
		for _, o := range ops {
			for _, par := range []int{1, 3} {
				label := fmt.Sprintf("%s/%v/par%d", o.name, desc, par)
				bufs := bufpool.New().Lease()
				outs, err := o.run(RT(context.Background(), nil, bufs, par), desc)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, c := range outs {
					if err := bufs.Put(c.Words()); err != nil {
						t.Fatalf("%s: output words: %v", label, err)
					}
				}
				if out := bufs.Out(); out != 0 {
					t.Fatalf("%s: %d bytes still out of the lease", label, out)
				}
				bufs.Close()
			}
		}
	}
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i)
	}
	return s
}
