// Csvload: string columns end to end — a CSV document with a string column
// is ingested through the per-column dictionary (types sniffed, strings
// translated to uint64 IDs, batches reserved at the admission gate), a
// JSON-lines tail is appended to the same table, and string predicates
// (equality, IN, prefix) run as ordinary compressed integer selects. A
// remorph fold then recompresses the ID column — dictionary IDs never
// change — and the same queries answer identically.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	ms "morphstore"
)

// The kind of file a warehouse job drops: a header line, then rows whose
// first column is a low-cardinality string.
const salesCSV = `nation,revenue
FRANCE,2100
GERMANY,3400
FRANCE,1200
JAPAN,900
GERMANY,800
FRANCE,4700
EGYPT,1500
JAPAN,2200
`

// A late-arriving tail in JSON-lines form, ingested into the same table.
const salesJSONL = `{"nation": "EGYPT", "revenue": 600}
{"nation": "FRANCE", "revenue": 300}
{"nation": "ETHIOPIA", "revenue": 1100}
`

// revenueWhere builds: sum of revenue over the rows whose nation matches
// the string predicate.
func revenueWhere(pred func(b *ms.PlanBuilder, nation ms.ColRef) ms.ColRef) *ms.Plan {
	b := ms.NewPlanBuilder()
	nation := b.Scan("sales", "nation")
	rev := b.Scan("sales", "revenue")
	b.Result(b.SumWhole("total", b.Project("rev", rev, pred(b, nation))))
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func run(ctx context.Context, eng *ms.Engine, name string, plan *ms.Plan) uint64 {
	q, err := eng.Prepare(plan, ms.WithCostBasedFormats())
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	res, err := q.Execute(ctx)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	total, err := ms.Decompress(res.Cols["total"])
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return total[0]
}

func main() {
	ctx := context.Background()
	db := ms.NewDB()
	eng := ms.NewEngine(db, ms.WithParallelism(4))
	defer eng.Close(ctx)

	// Load creates the table from the CSV header, sniffing "nation" as a
	// string column (dictionary + ID column) and "revenue" as numeric.
	n, err := ms.Ingest(ctx, eng, "sales", ms.NewCSVSource(strings.NewReader(salesCSV)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("csv ingest: %d rows\n", n)

	// The JSON-lines tail appends through the same dictionary.
	n, err = ms.Ingest(ctx, eng, "sales", ms.NewJSONLinesSource(strings.NewReader(salesJSONL)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jsonl ingest: %d rows\n", n)

	plans := []struct {
		name string
		plan *ms.Plan
	}{
		{"revenue[nation = FRANCE]", revenueWhere(func(b *ms.PlanBuilder, nation ms.ColRef) ms.ColRef {
			return b.SelectStrEq("pos", nation, "FRANCE")
		})},
		{"revenue[nation IN (GERMANY, JAPAN)]", revenueWhere(func(b *ms.PlanBuilder, nation ms.ColRef) ms.ColRef {
			return b.SelectStrIn("pos", nation, "GERMANY", "JAPAN")
		})},
		{"revenue[nation LIKE E%]", revenueWhere(func(b *ms.PlanBuilder, nation ms.ColRef) ms.ColRef {
			return b.SelectStrPrefix("pos", nation, "E")
		})},
	}
	before := make([]uint64, len(plans))
	for i, p := range plans {
		before[i] = run(ctx, eng, p.name, p.plan)
		fmt.Printf("%-38s = %d\n", p.name, before[i])
	}

	// Fold the delta into a freshly compressed main: invisible to queries,
	// so the same prepared shapes must answer identically.
	if err := eng.Remorph(ctx, "sales"); err != nil {
		log.Fatal(err)
	}
	ds := eng.Snapshot().Dict("sales", "nation")
	fmt.Printf("after remorph: dict %d strings\n", ds.Len())
	for i, p := range plans {
		after := run(ctx, eng, p.name, p.plan)
		if after != before[i] {
			log.Fatalf("%s: %d after remorph, want %d", p.name, after, before[i])
		}
	}
	fmt.Println("all string predicates stable across the remorph")
}
