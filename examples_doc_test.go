package morphstore_test

// This file keeps the documentation honest: the code snippets shown in
// README.md and docs/ARCHITECTURE.md exist here between doc-snippet
// markers, so they are compiled and executed by `go test .`, and
// TestDocSnippetsInSync fails when a marked line no longer appears in the
// corresponding document (drift in either direction breaks the build).

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"morphstore"
)

// TestREADMEAPISnippet compiles and runs the README "## API" example.
func TestREADMEAPISnippet(t *testing.T) {
	// doc-snippet:readme-api README.md
	ctx := context.Background()

	// One-off operators share the engine budget.
	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	col, _ := morphstore.Compress(vals, morphstore.DynBP)
	eng := morphstore.NewEngine(nil)
	pos, _ := eng.Select(ctx, col, morphstore.CmpGt, 3, morphstore.WithOutput(morphstore.DeltaBP))
	sum, _ := eng.Sum(ctx, col)

	// Prepared plans: formats resolved once (explicitly, uniformly, or
	// cost-based), every node bound to a physical operator.
	db := morphstore.NewDB()
	db.AddTable("t", map[string][]uint64{"x": vals})
	b := morphstore.NewPlanBuilder()
	x := b.Scan("t", "x")
	match := b.Select("match", x, morphstore.CmpGt, 3)
	b.Result(b.SumWhole("total", b.Project("matched", x, match)))
	plan, _ := b.Build()

	eng = morphstore.NewEngine(db,
		morphstore.WithParallelism(8),           // engine-wide worker budget
		morphstore.WithMaxConcurrentQueries(64)) // admission gate
	q, _ := eng.Prepare(plan, morphstore.WithCostBasedFormats())
	res, _ := q.Execute(ctx) // concurrent-safe, cancellable
	// end-doc-snippet

	if pos == nil || pos.N() != 4 {
		t.Fatalf("select positions = %v", pos)
	}
	if sum != 31 {
		t.Fatalf("sum = %d, want 31", sum)
	}
	if res == nil || res.Cols["total"] == nil {
		t.Fatal("prepared execution produced no result column")
	}
	if got, _ := morphstore.Decompress(res.Cols["total"]); got[0] != 24 {
		t.Fatalf("total = %d, want 24 (4+5+9+6)", got[0])
	}
}

// TestREADMEWriteSnippet compiles and runs the README "## Writable tables"
// example.
func TestREADMEWriteSnippet(t *testing.T) {
	ctx := context.Background()

	// doc-snippet:readme-write README.md
	wdb := morphstore.NewDB()
	wdb.AddTable("events", map[string][]uint64{"v": {10, 20, 30, 40}})
	weng := morphstore.NewEngine(wdb,
		morphstore.WithRemorph(0.1, time.Second)) // background delta folding
	werr := weng.Append(ctx, "events", map[string][]uint64{"v": {50, 60}})
	if werr == nil {
		werr = weng.Delete(ctx, "events", []uint64{0}) // by live row position
	}
	if werr == nil {
		werr = weng.Remorph(ctx, "events") // or fold the delta right now
	}
	epoch := weng.Snapshot().Epoch("events") // pinned, consistent read view
	// end-doc-snippet

	if werr != nil {
		t.Fatal(werr)
	}
	if epoch == 0 {
		t.Fatal("mutations did not advance the table epoch")
	}
	st := weng.Stats()
	if st.Appends != 1 || st.AppendedRows != 2 || st.Deletes != 1 || st.Remorphs != 1 {
		t.Fatalf("write counters not tracked: %+v", st)
	}
	if n, ok := weng.Snapshot().Rows("events"); !ok || n != 5 {
		t.Fatalf("live rows = %d,%v, want 5,true", n, ok)
	}
	if err := weng.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestREADMEIngestSnippet compiles and runs the README "String columns &
// ingest" example.
func TestREADMEIngestSnippet(t *testing.T) {
	ctx := context.Background()

	// doc-snippet:readme-ingest README.md
	csv := "nation,revenue\nFRANCE,10\nGERMANY,20\nFRANCE,30\n"
	idb := morphstore.NewDB()
	ieng := morphstore.NewEngine(idb, morphstore.WithParallelism(4))
	rows, ierr := morphstore.Ingest(ctx, ieng, "sales",
		morphstore.NewCSVSource(strings.NewReader(csv))) // sniffs types, builds the dict
	ib := morphstore.NewPlanBuilder()
	fr := ib.SelectStrEq("fr", ib.Scan("sales", "nation"), "FRANCE")
	ib.Result(ib.Project("rev", ib.Scan("sales", "revenue"), fr))
	iplan, _ := ib.Build()
	iq, _ := ieng.Prepare(iplan, morphstore.WithCostBasedFormats())
	ires, _ := iq.Execute(ctx)
	// end-doc-snippet

	if ierr != nil || rows != 3 {
		t.Fatalf("ingest = %d rows, %v; want 3, nil", rows, ierr)
	}
	if ires == nil || ires.Cols["rev"] == nil {
		t.Fatal("ingest query produced no result column")
	}
	got, err := morphstore.Decompress(ires.Cols["rev"])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("FRANCE revenues = %v, want [10 30]", got)
	}
	if ds := ieng.Snapshot().Dict("sales", "nation"); ds == nil || ds.Len() != 2 {
		t.Fatalf("dictionary snapshot = %v, want 2 entries", ds)
	}
	if err := ieng.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestArchitectureGroupingSnippet compiles and runs the grouped-aggregation
// example from docs/ARCHITECTURE.md.
func TestArchitectureGroupingSnippet(t *testing.T) {
	ctx := context.Background()
	eng := morphstore.NewEngine(nil)
	keys := morphstore.FromValues([]uint64{7, 7, 3, 7, 3, 5})
	vals := morphstore.FromValues([]uint64{1, 2, 3, 4, 5, 6})

	// doc-snippet:architecture-grouping docs/ARCHITECTURE.md
	gids, extents, _ := eng.GroupFirst(ctx, keys,
		morphstore.WithOutputs(morphstore.DynBP, morphstore.Uncompressed))
	sums, _ := eng.SumGrouped(ctx, gids, vals, extents.N())
	groupKeys, _ := eng.Project(ctx, keys, extents)
	// end-doc-snippet

	wantKeys := []uint64{7, 3, 5}
	wantSums := []uint64{7, 8, 6}
	gotKeys, _ := morphstore.Decompress(groupKeys)
	gotSums, _ := morphstore.Decompress(sums)
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] || gotSums[i] != wantSums[i] {
			t.Fatalf("group %d: key %d sum %d, want key %d sum %d",
				i, gotKeys[i], gotSums[i], wantKeys[i], wantSums[i])
		}
	}
}

// TestArchitectureRetrySnippet compiles and runs the caller-side retry loop
// from the "Overload protection & lifecycle" section of docs/ARCHITECTURE.md.
func TestArchitectureRetrySnippet(t *testing.T) {
	ctx := context.Background()
	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	db := morphstore.NewDB()
	db.AddTable("t", map[string][]uint64{"x": vals})
	b := morphstore.NewPlanBuilder()
	x := b.Scan("t", "x")
	match := b.Select("match", x, morphstore.CmpGt, 3)
	b.Result(b.SumWhole("total", b.Project("matched", x, match)))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := morphstore.NewEngine(db, morphstore.WithParallelism(2))

	// doc-snippet:architecture-retry docs/ARCHITECTURE.md
	q, _ := eng.Prepare(plan, morphstore.WithCostBasedFormats())
	res, err := q.Execute(ctx)
	for attempt, delay := 1, time.Millisecond; morphstore.IsRetryable(err) && attempt < 5; attempt++ {
		time.Sleep(delay) // back off (add jitter when many callers shed at once)
		delay *= 2
		res, err = q.Execute(ctx)
	}
	// end-doc-snippet

	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cols["total"] == nil {
		t.Fatal("retried execution produced no result column")
	}
	if err := eng.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestObservabilitySnippet compiles and runs the stats-collection example
// from docs/OBSERVABILITY.md.
func TestObservabilitySnippet(t *testing.T) {
	ctx := context.Background()
	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	db := morphstore.NewDB()
	db.AddTable("t", map[string][]uint64{"x": vals})
	b := morphstore.NewPlanBuilder()
	x := b.Scan("t", "x")
	match := b.Select("match", x, morphstore.CmpGt, 3)
	b.Result(b.SumWhole("total", b.Project("matched", x, match)))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := morphstore.NewEngine(db, morphstore.WithParallelism(2))
	q, err := eng.Prepare(plan, morphstore.WithUniformFormat(morphstore.DynBP))
	if err != nil {
		t.Fatal(err)
	}

	// doc-snippet:observability-stats docs/OBSERVABILITY.md
	var qs morphstore.QueryStats
	res, _ := q.Execute(ctx, morphstore.WithExecStats(&qs))
	for _, n := range qs.Nodes {
		fmt.Printf("%-8s %-12s %6d morsels %12v kernel  %v\n",
			n.Op, n.Name, n.Morsels, n.Kernel, n.Formats)
	}
	// end-doc-snippet

	if res == nil || res.Cols["total"] == nil {
		t.Fatal("collected execution produced no result column")
	}
	if qs.Failed || len(qs.Nodes) != 4 {
		t.Fatalf("stats tree not populated: %+v", qs)
	}
	for i, n := range qs.Nodes {
		if !n.Done {
			t.Fatalf("node %d not Done after success: %+v", i, n)
		}
	}
	if st := eng.Stats(); st.QueriesSucceeded != 1 {
		t.Fatalf("engine counters = %+v, want one success", st)
	}
}

// TestDocSnippetsInSync re-reads this file, collects every marked snippet,
// and verifies it against the document named by its marker in both
// directions: every snippet line must appear in one of the document's
// fenced Go blocks, and the matched block must contain no line that is
// missing from the compiled snippet — so editing either side without the
// other fails.
func TestDocSnippetsInSync(t *testing.T) {
	src, err := os.ReadFile("examples_doc_test.go")
	if err != nil {
		t.Fatal(err)
	}
	type snippet struct {
		doc   string
		lines []string
	}
	var snippets []snippet
	var cur *snippet
	sc := bufio.NewScanner(strings.NewReader(string(src)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "// doc-snippet:"):
			fields := strings.Fields(strings.TrimPrefix(line, "// doc-snippet:"))
			if len(fields) != 2 {
				t.Fatalf("malformed snippet marker %q", line)
			}
			snippets = append(snippets, snippet{doc: fields[1]})
			cur = &snippets[len(snippets)-1]
		case line == "// end-doc-snippet":
			cur = nil
		case cur != nil && line != "":
			cur.lines = append(cur.lines, line)
		}
	}
	if len(snippets) == 0 {
		t.Fatal("no doc snippets found — markers broken?")
	}
	docBlocks := map[string][][]string{}
	for _, sn := range snippets {
		if docBlocks[sn.doc] == nil {
			raw, err := os.ReadFile(sn.doc)
			if err != nil {
				t.Fatalf("snippet document: %v", err)
			}
			docBlocks[sn.doc] = goFences(string(raw))
		}
		if len(sn.lines) == 0 {
			t.Fatal("empty doc snippet")
		}
		// The document block covering this snippet is the one holding its
		// first line.
		var block []string
		for _, bl := range docBlocks[sn.doc] {
			for _, l := range bl {
				if l == sn.lines[0] {
					block = bl
					break
				}
			}
			if block != nil {
				break
			}
		}
		if block == nil {
			t.Errorf("%s: no fenced Go block contains the snippet starting %q", sn.doc, sn.lines[0])
			continue
		}
		snSet := map[string]bool{}
		for _, l := range sn.lines {
			snSet[l] = true
		}
		blSet := map[string]bool{}
		for _, l := range block {
			blSet[l] = true
		}
		for _, l := range sn.lines {
			if !blSet[l] {
				t.Errorf("%s: compiled snippet line missing from the document block (doc drifted):\n  %s", sn.doc, l)
			}
		}
		for _, l := range block {
			if !snSet[l] {
				t.Errorf("%s: document line is not part of the compiled snippet (doc shows unverified code):\n  %s", sn.doc, l)
			}
		}
	}
}

// goFences extracts the ```go fenced code blocks of a markdown document as
// per-block lists of trimmed, non-blank lines.
func goFences(doc string) [][]string {
	var blocks [][]string
	var cur []string
	in := false
	for _, l := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(l)
		switch {
		case !in && trimmed == "```go":
			in, cur = true, nil
		case in && trimmed == "```":
			in = false
			blocks = append(blocks, cur)
		case in && trimmed != "":
			cur = append(cur, trimmed)
		}
	}
	return blocks
}
