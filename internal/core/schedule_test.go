package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"morphstore/internal/metrics"
)

// checkSchedules checks the two schedules of pr against the plan and
// against qs, the stats tree of one of pr's executions: in each schedule a
// node reads each node its inputs name once and nothing else, its readers
// are exactly the nodes that read it, and an elided node reads nothing and
// is read by nothing; the schedule as written runs every node on the plan's
// own inputs, and its reads are the inputs the stats tree reports.
func checkSchedules(pr *Prepared, qs *metrics.QueryStats) error {
	for _, sc := range []struct {
		mode  string
		steps schedule
	}{{"as written", pr.written}, {"rewritten", pr.rewritten}} {
		if len(sc.steps) != len(pr.p.nodes) {
			return fmt.Errorf("%s: %d steps for %d nodes", sc.mode, len(sc.steps), len(pr.p.nodes))
		}
		inverse := make([][]int, len(sc.steps))
		for d, st := range sc.steps {
			var reads []int
			for _, in := range st.inputs {
				if !slices.Contains(reads, in.node.id) {
					reads = append(reads, in.node.id)
				}
			}
			if !slices.Equal(st.reads, reads) {
				return fmt.Errorf("%s: node %d reads %v, its inputs name %v", sc.mode, d, st.reads, reads)
			}
			for _, p := range st.reads {
				inverse[p] = append(inverse[p], d)
			}
		}
		for p, st := range sc.steps {
			if !slices.Equal(st.readers, inverse[p]) {
				return fmt.Errorf("%s: node %d has readers %v, read by %v", sc.mode, p, st.readers, inverse[p])
			}
			if st.run == nil && (len(st.inputs) != 0 || len(st.readers) != 0) {
				return fmt.Errorf("%s: elided node %d reads %v and is read by %v", sc.mode, p, st.inputs, st.readers)
			}
		}
	}
	if len(qs.Nodes) != len(pr.p.nodes) {
		return fmt.Errorf("stats tree has %d nodes, want %d", len(qs.Nodes), len(pr.p.nodes))
	}
	for d, n := range pr.p.nodes {
		st := pr.written[d]
		if st.run == nil || !slices.Equal(st.inputs, n.inputs) {
			return fmt.Errorf("as written: node %d does not run on its plan inputs", d)
		}
		if !slices.Equal(st.reads, qs.Nodes[d].Inputs) {
			return fmt.Errorf("node %d reads %v as written, its stats report inputs %v", d, st.reads, qs.Nodes[d].Inputs)
		}
	}
	return nil
}

// TestScheduleEdges checks the schedules of every hand-built rewrite shape,
// fused or not (TestScheduleEdgesSSB covers the SSB plans).
func TestScheduleEdges(t *testing.T) {
	e := NewEngine(rewriteDB(t), WithParallelism(2))
	for _, sh := range rewriteShapes {
		b := NewBuilder()
		sh.build(b)
		p, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		pr, err := e.Prepare(p)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		var qs metrics.QueryStats
		if _, err := pr.Execute(context.Background(), WithExecStats(&qs)); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if err := checkSchedules(pr, &qs); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
	}
}
