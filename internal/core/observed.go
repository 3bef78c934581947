package core

import "morphstore/internal/columns"

// This file implements the observation record: what each node of a prepared
// plan produced the last time the plan ran successfully. Two consumers read
// it. The drivers size their output buffers from a node's rows
// (ops.Runtime.WithObserved), and the memory estimate scales the run's
// peak of held bytes by the tables' growth since (memestimate.go). memcp's
// rebuild() sizes each pass from the previous one the same way.
//
// A record is immutable once published: Prepared.obs swaps in a new one at
// the end of each successful execution, and a concurrent execution keeps
// reading the one it loaded when it started. A failed, cancelled or
// panicking execution publishes nothing, nor does a WithKeep(true) one: it
// runs the plan as written, not the rewritten plan the other executions run.

// observed is what one plan node produced in a successful execution.
type observed struct {
	rows  []int // element count per output
	bytes int   // physical bytes of the outputs
}

// observation is the record one successful execution publishes.
type observation struct {
	nodes []observed // indexed by plan node id
	peak  int64      // the most bytes the execution held charged at once
}

// observe builds the record of a successful execution from what its nodes
// produced, noted as each was published (its columns may since be released).
func observe(es *execState) *observation {
	return &observation{nodes: es.seen, peak: es.mres.Peak()}
}

// observedOf notes what one node produced.
func observedOf(produced []*columns.Column) observed {
	o := observed{rows: make([]int, len(produced))}
	for i, col := range produced {
		o.rows[i] = col.N()
		o.bytes += col.PhysicalBytes()
	}
	return o
}

// rows returns node id's observed output rows, nil without a record.
func (o *observation) rows(id int) []int {
	if o == nil {
		return nil
	}
	return o.nodes[id].rows
}
