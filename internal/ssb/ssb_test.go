package ssb

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/metrics"
	"morphstore/internal/monetsim"
)

// testData caches a small SSB instance across tests.
var testData *Data

func getData(t *testing.T) *Data {
	t.Helper()
	if testData == nil {
		d, err := Generate(0.002, 7)
		if err != nil {
			t.Fatal(err)
		}
		plantSelective(d)
		testData = d
	}
	return testData
}

// plantSelective rewrites a fraction of the dimension rows to the very
// selective predicate values of Q2.3/Q3.3/Q3.4 (keeping the hierarchies
// consistent), so that these queries have non-empty results at the tiny
// test scale factor. At SF >= 1 the natural distributions suffice; this is
// purely a test-scale device.
func plantSelective(d *Data) {
	dc := d.Dicts
	uk := dc.Nation.MustCode("UNITED KINGDOM")
	eur := dc.Region.MustCode("EUROPE")
	ki1, ki5 := dc.CityCode("UNITED KINGDOM", 1), dc.CityCode("UNITED KINGDOM", 5)

	cc, _ := d.DB.Tables["customer"].Cols["c_city"].Values()
	cn, _ := d.DB.Tables["customer"].Cols["c_nation"].Values()
	cr, _ := d.DB.Tables["customer"].Cols["c_region"].Values()
	for i := range cc {
		if i%7 == 0 {
			cc[i], cn[i], cr[i] = ki1, uk, eur
		} else if i%9 == 0 {
			cc[i], cn[i], cr[i] = ki5, uk, eur
		}
	}
	sc, _ := d.DB.Tables["supplier"].Cols["s_city"].Values()
	sn, _ := d.DB.Tables["supplier"].Cols["s_nation"].Values()
	sr, _ := d.DB.Tables["supplier"].Cols["s_region"].Values()
	for i := range sc {
		if i%5 == 0 {
			sc[i], sn[i], sr[i] = ki1, uk, eur
		} else if i%6 == 0 {
			sc[i], sn[i], sr[i] = ki5, uk, eur
		}
	}
	pb, _ := d.DB.Tables["part"].Cols["p_brand1"].Values()
	pc, _ := d.DB.Tables["part"].Cols["p_category"].Values()
	pm, _ := d.DB.Tables["part"].Cols["p_mfgr"].Values()
	b2221 := dc.Brand.MustCode("MFGR#2221")
	c22 := dc.Category.MustCode("MFGR#22")
	m2 := dc.Mfgr.MustCode("MFGR#2")
	for i := range pb {
		if i%11 == 0 {
			pb[i], pc[i], pm[i] = b2221, c22, m2
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	d := getData(t)
	if d.Lineorder < 1000 {
		t.Errorf("lineorder rows = %d", d.Lineorder)
	}
	if d.Dates != 2557 { // 1992-1998 includes two leap years
		t.Errorf("dates = %d, want 2557", d.Dates)
	}
	lo := d.DB.Tables["lineorder"]
	for name, col := range lo.Cols {
		if col.N() != d.Lineorder {
			t.Errorf("%s has %d rows, want %d", name, col.N(), d.Lineorder)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	av, _ := a.DB.Tables["lineorder"].Cols["lo_revenue"].Values()
	bv, _ := b.DB.Tables["lineorder"].Cols["lo_revenue"].Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("not deterministic at row %d", i)
		}
	}
}

func TestGenerateBadSF(t *testing.T) {
	if _, err := Generate(0, 1); err == nil {
		t.Error("sf=0 must fail")
	}
	if _, err := Generate(-1, 1); err == nil {
		t.Error("negative sf must fail")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	d := getData(t)
	lo := d.DB.Tables["lineorder"]
	ck, _ := lo.Cols["lo_custkey"].Values()
	sk, _ := lo.Cols["lo_suppkey"].Values()
	pk, _ := lo.Cols["lo_partkey"].Values()
	od, _ := lo.Cols["lo_orderdate"].Values()
	dk, _ := d.DB.Tables["date"].Cols["d_datekey"].Values()
	dkSet := make(map[uint64]bool, len(dk))
	for _, k := range dk {
		dkSet[k] = true
	}
	for i := range ck {
		if ck[i] >= uint64(d.Customers) {
			t.Fatalf("row %d: custkey %d out of range", i, ck[i])
		}
		if sk[i] >= uint64(d.Suppliers) {
			t.Fatalf("row %d: suppkey %d out of range", i, sk[i])
		}
		if pk[i] >= uint64(d.Parts) {
			t.Fatalf("row %d: partkey %d out of range", i, pk[i])
		}
		if !dkSet[od[i]] {
			t.Fatalf("row %d: orderdate %d not in date dimension", i, od[i])
		}
	}
}

func TestDictionaryOrderPreserving(t *testing.T) {
	d := getData(t)
	// Lexicographic order of brands equals code order.
	b1 := d.Dicts.Brand.MustCode("MFGR#2221")
	b2 := d.Dicts.Brand.MustCode("MFGR#2228")
	if b2 != b1+7 {
		t.Errorf("brand codes not dense/ordered: %d, %d", b1, b2)
	}
	if d.Dicts.Brand.String(b1) != "MFGR#2221" {
		t.Errorf("decode = %q", d.Dicts.Brand.String(b1))
	}
	// Mfgr codes MFGR#1..MFGR#5 must be 0..4.
	if d.Dicts.Mfgr.MustCode("MFGR#1") != 0 || d.Dicts.Mfgr.MustCode("MFGR#5") != 4 {
		t.Error("mfgr codes not ordered")
	}
	// Unknown lookups.
	if _, ok := d.Dicts.Region.Code("ATLANTIS"); ok {
		t.Error("unknown region found")
	}
}

func TestHierarchyConsistency(t *testing.T) {
	d := getData(t)
	cn, _ := d.DB.Tables["customer"].Cols["c_nation"].Values()
	cr, _ := d.DB.Tables["customer"].Cols["c_region"].Values()
	for i := range cn {
		if want := d.Dicts.nationRegion[cn[i]]; cr[i] != want {
			t.Fatalf("customer %d: region %d, want %d for nation %d", i, cr[i], want, cn[i])
		}
	}
	// City belongs to its nation: city code / 10 is not guaranteed to equal
	// nation code (dictionaries sort independently), but the decoded city
	// string must carry the nation's 9-char prefix.
	cc, _ := d.DB.Tables["customer"].Cols["c_city"].Values()
	for i := range cc {
		city := d.Dicts.City.String(cc[i])
		nation := d.Dicts.Nation.String(cn[i])
		prefix := nation
		for len(prefix) < 9 {
			prefix += " "
		}
		if city[:9] != prefix[:9] {
			t.Fatalf("customer %d: city %q does not match nation %q", i, city, nation)
		}
	}
}

// execPlan prepares the plan on a fresh engine over db (GOMAXPROCS budget)
// with the case's options and executes it once.
func execPlan(p *core.Plan, db *core.DB, o ...core.Option) (*core.Result, error) {
	pr, err := core.NewEngine(db).Prepare(p, o...)
	if err != nil {
		return nil, err
	}
	return pr.Execute(context.Background())
}

// TestAllQueriesAllEnginesAgree is the central SSB correctness test: every
// query must produce identical results in the row-wise reference, the
// MorphStore engine (uncompressed and several compressed configurations),
// and the MonetDB-style baseline (wide and narrow).
func TestAllQueriesAllEnginesAgree(t *testing.T) {
	d := getData(t)
	for _, q := range Queries {
		q := q
		t.Run(string(q), func(t *testing.T) {
			want, err := Reference(q, d)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("reference produced no rows; workload too small to be meaningful")
			}
			plan, err := BuildPlan(q, d.Dicts)
			if err != nil {
				t.Fatal(err)
			}

			cfgs := map[string][]core.Option{
				"uncompr":  nil,
				"staticbp": {core.WithUniformFormat(columns.StaticBPDesc(0))},
				"dynbp":    {core.WithUniformFormat(columns.DynBPDesc)},
				"delta":    {core.WithUniformFormat(columns.DeltaBPDesc)},
			}
			for name, opts := range cfgs {
				res, err := execPlan(plan, d.DB, opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := ExtractResult(q, res)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !RowsEqual(got, want) {
					t.Fatalf("%s: %d rows vs reference %d rows (or values differ)",
						name, len(got), len(want))
				}
			}

			// Specialized operators enabled, on compressed base data.
			enc, err := d.DB.Encode(allStaticBase(d.DB))
			if err != nil {
				t.Fatal(err)
			}
			res, err := execPlan(plan, enc, core.WithUniformFormat(columns.DynBPDesc), core.WithSpecialized(true))
			if err != nil {
				t.Fatalf("specialized: %v", err)
			}
			got, err := ExtractResult(q, res)
			if err != nil {
				t.Fatal(err)
			}
			if !RowsEqual(got, want) {
				t.Fatal("specialized: results differ from reference")
			}

			// The MonetDB-style baseline on the same plan.
			for _, narrow := range []bool{false, true} {
				mdb, err := monetsim.NewDB(d.DB, narrow)
				if err != nil {
					t.Fatal(err)
				}
				mres, err := monetsim.Execute(plan, mdb)
				if err != nil {
					t.Fatalf("monetsim narrow=%v: %v", narrow, err)
				}
				got, err := ExtractRows(q, mres.Cols)
				if err != nil {
					t.Fatal(err)
				}
				if !RowsEqual(got, want) {
					t.Fatalf("monetsim narrow=%v: results differ from reference", narrow)
				}
			}
		})
	}
}

// allStaticBase assigns static BP to every base column of the database.
func allStaticBase(db *core.DB) map[string]columns.FormatDesc {
	m := make(map[string]columns.FormatDesc)
	for tn, t := range db.Tables {
		for cn := range t.Cols {
			m[tn+"."+cn] = columns.StaticBPDesc(0)
		}
	}
	return m
}

// TestPlanShapes verifies the QEPs have the base-column and intermediate
// counts the paper reports (6-16 base columns, 15-56 intermediates).
func TestPlanShapes(t *testing.T) {
	d := getData(t)
	for _, q := range Queries {
		plan, err := BuildPlan(q, d.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		nb := len(plan.BaseColumns())
		ni := len(plan.IntermediateNames())
		if nb < 5 || nb > 16 {
			t.Errorf("%s: %d base columns, expected 5-16", q, nb)
		}
		if ni < 10 || ni > 60 {
			t.Errorf("%s: %d intermediates, expected 10-60", q, ni)
		}
	}
}

func TestCompressedConfigShrinksFootprint(t *testing.T) {
	d := getData(t)
	plan, err := BuildPlan(Q11, d.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	resU, err := execPlan(plan, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := d.DB.Encode(allStaticBase(d.DB))
	if err != nil {
		t.Fatal(err)
	}
	resC, err := execPlan(plan, enc, core.WithUniformFormat(columns.StaticBPDesc(0)))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(resC.Meas.Footprint()) / float64(resU.Meas.Footprint())
	// Paper Fig. 7: static BP everywhere reaches ~30-55% of uncompressed.
	if ratio > 0.7 {
		t.Errorf("static BP footprint ratio %.2f, want <= 0.7", ratio)
	}
}

func TestUnknownQuery(t *testing.T) {
	d := getData(t)
	if _, err := BuildPlan(Query("9.9"), d.Dicts); err == nil {
		t.Error("unknown query must fail")
	}
	if _, err := Reference(Query("9.9"), d); err == nil {
		t.Error("unknown query must fail")
	}
}

func TestExtractRowsErrors(t *testing.T) {
	if _, err := ExtractRows(Q21, map[string][]uint64{}); err == nil {
		t.Error("missing aggregate must fail")
	}
	if _, err := ExtractRows(Q21, map[string][]uint64{
		"res_sum": {1, 2}, "res_d_year": {1992}, "res_p_brand1": {1, 2},
	}); err == nil {
		t.Error("ragged result must fail")
	}
}

// orderTracer records the order in which operator spans open and the
// largest number of spans open at once.
type orderTracer struct {
	mu                sync.Mutex
	begun             []int
	inFlight, maxOpen int
}

func (o *orderTracer) Begin(s metrics.Span, _ time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.begun = append(o.begun, s.Node)
	o.inFlight++
	o.maxOpen = max(o.maxOpen, o.inFlight)
}

func (o *orderTracer) End(metrics.Span, time.Time, metrics.NodeStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inFlight--
}

func (o *orderTracer) Event(metrics.Span, time.Time, metrics.Event) {}

// TestWidth1RunsPlanOrder pins "sequential is the scheduler at width 1": on
// every SSB plan a width-1 execution — asked for with WithParallelism(1), or
// forced by WithMemoryLimitDegrade under a budget every estimate exceeds,
// which QueryStats.MemDegraded then reports — starts the nodes in node-id
// order with one operator in flight, and width 1 and width 4 materialize
// byte-identical columns with identical per-column sizes.
func TestWidth1RunsPlanOrder(t *testing.T) {
	d := getData(t)
	enc, err := d.DB.Encode(allStaticBase(d.DB))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(enc, core.WithParallelism(4))
	tight := core.NewEngine(enc, core.WithParallelism(4), core.WithMemoryBudget(1), core.WithMemoryLimitDegrade(true))
	for _, q := range Queries {
		plan, err := BuildPlan(q, d.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		prepare := func(e *core.Engine) *core.Prepared {
			pr, err := e.Prepare(plan, core.WithUniformFormat(columns.DynBPDesc), core.WithKeep(true))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return pr
		}
		plain, degraded := prepare(eng), prepare(tight)
		wide, err := plain.Execute(context.Background())
		if err != nil {
			t.Fatalf("%s width 4: %v", q, err)
		}
		for _, c := range []struct {
			name string
			pr   *core.Prepared
			o    []core.Option
		}{
			{"width 1", plain, []core.Option{core.WithParallelism(1)}},
			{"degraded", degraded, nil},
		} {
			name := c.name
			var ot orderTracer
			var qs metrics.QueryStats
			res, err := c.pr.Execute(context.Background(), append(c.o, core.WithTracer(&ot), core.WithExecStats(&qs))...)
			if err != nil {
				t.Fatalf("%s %s: %v", q, name, err)
			}
			if qs.MemDegraded != (c.pr == degraded) {
				t.Fatalf("%s %s: MemDegraded = %v", q, name, qs.MemDegraded)
			}
			if ot.maxOpen != 1 {
				t.Errorf("%s %s: %d operators in flight at once, want 1", q, name, ot.maxOpen)
			}
			if len(ot.begun) != len(plan.Nodes()) {
				t.Fatalf("%s %s: %d nodes started, plan has %d", q, name, len(ot.begun), len(plan.Nodes()))
			}
			for i, id := range ot.begun {
				if id != i {
					t.Fatalf("%s %s: start order %v is not node-id order", q, name, ot.begun)
				}
			}
			if len(res.Inter) != len(wide.Inter) || len(res.Meas.ColBytes) != len(wide.Meas.ColBytes) {
				t.Fatalf("%s %s: %d columns / %d sizes, width 4 has %d / %d", q, name,
					len(res.Inter), len(res.Meas.ColBytes), len(wide.Inter), len(wide.Meas.ColBytes))
			}
			for cn, w := range wide.Inter {
				g := res.Inter[cn]
				if g == nil || g.Desc() != w.Desc() || g.N() != w.N() || !slices.Equal(g.Words(), w.Words()) {
					t.Fatalf("%s %s: column %q differs from width 4", q, name, cn)
				}
				if res.Meas.ColBytes[cn] != wide.Meas.ColBytes[cn] {
					t.Fatalf("%s %s: ColBytes[%s] = %d, width 4 has %d", q, name, cn,
						res.Meas.ColBytes[cn], wide.Meas.ColBytes[cn])
				}
			}
		}
	}
}
