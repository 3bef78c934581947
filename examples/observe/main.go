// Observe: execute one query with a stats collector and a JSONL tracer
// attached, print the per-operator stats tree, and read the engine-wide
// counters — the observability layer end to end. See docs/OBSERVABILITY.md
// for the full model.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	ms "morphstore"
)

func main() {
	// A small star-schema-ish workload: one fact column filtered and
	// aggregated, so the plan has a scan → select → project → sum spine.
	rng := rand.New(rand.NewSource(7))
	price := make([]uint64, 512*1024)
	for i := range price {
		price[i] = uint64(rng.Intn(10_000))
	}
	db := ms.NewDB()
	db.AddTable("lineorder", map[string][]uint64{"price": price})

	b := ms.NewPlanBuilder()
	p := b.Scan("lineorder", "price")
	cheap := b.Select("cheap", p, ms.CmpLt, 100)
	b.Result(b.SumWhole("revenue", b.Project("matched", p, cheap)))
	plan, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	eng := ms.NewEngine(db, ms.WithParallelism(4))
	q, err := eng.Prepare(plan, ms.WithUniformFormat(ms.DynBP))
	if err != nil {
		log.Fatal(err)
	}

	// One collected + traced execution: the stats tree lands in qs, the
	// trace streams to stderr as JSON lines.
	var qs ms.QueryStats
	res, err := q.Execute(context.Background(),
		ms.WithExecStats(&qs), ms.WithTracer(ms.NewJSONLTracer(os.Stderr)))
	if err != nil {
		log.Fatal(err)
	}
	total, err := ms.Decompress(res.Cols["revenue"])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("revenue = %d\n\n", total[0])

	// The stats tree mirrors the plan: one NodeStats per operator, indexed
	// by plan node id, linked through Inputs.
	fmt.Printf("query %d: %v wall, %d operators\n", qs.Query, qs.Wall, len(qs.Nodes))
	fmt.Printf("%-4s %-8s %-16s %-7s %8s %12s %15s %8s  %s\n",
		"node", "op", "name", "inputs", "morsels", "kernel", "in→out", "workers", "formats")
	for _, n := range qs.Nodes {
		mode := fmt.Sprintf("%d", n.Workers)
		if n.SeqFallback {
			mode = "seq"
		}
		fmt.Printf("%-4d %-8s %-16s %-7s %8d %12v %7d→%-7d %8s  %v\n",
			n.Node, n.Op, n.Name, fmt.Sprint(n.Inputs), n.Morsels, n.Kernel,
			n.InValues, n.OutValues, mode, n.Formats)
	}

	// Engine-wide counters: queries by outcome class, budget utilization.
	st := eng.Stats()
	fmt.Printf("\nengine: %d started, %d succeeded; budget %d/%d tokens in use\n",
		st.QueriesStarted, st.QueriesSucceeded, st.BudgetInUse, st.BudgetTotal)
}
