package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestNilSafety exercises every NodeCollector method and Collector.Node on
// nil receivers: the detached mode the execution layers rely on.
func TestNilSafety(t *testing.T) {
	var c *Collector
	nc := c.Node(7)
	if nc != nil {
		t.Fatalf("nil collector Node returned %v, want nil", nc)
	}
	nc.Begin(42)
	if s := nc.Shards(4); s != nil {
		t.Fatalf("nil NodeCollector Shards returned %v, want nil", s)
	}
	nc.SeqFallback()
	nc.Finish(10, []string{"uncompr"}, errors.New("ignored"))
}

// TestShardPadding pins the Shard layout at 64 bytes so two workers' slots
// never share a cache line.
func TestShardPadding(t *testing.T) {
	if sz := unsafe.Sizeof(Shard{}); sz != 64 {
		t.Fatalf("Shard is %d bytes, want 64 (cache-line padded)", sz)
	}
}

// TestCollectorLifecycle walks a two-node plan through the full collection
// protocol and checks the assembled tree.
func TestCollectorLifecycle(t *testing.T) {
	c := NewCollectorFor(ReserveQueryID(), 2, nil)
	c.Define(0, "lo_price", "scan", nil)
	c.Define(1, "rev", "sum", []int{0})

	n0 := c.Node(0)
	n0.Begin(0)
	n0.Finish(1000, []string{"uncompr"}, nil)

	n1 := c.Node(1)
	n1.Begin(1000)
	sh := n1.Shards(2)
	if len(sh) != 2 {
		t.Fatalf("Shards(2) returned %d slots", len(sh))
	}
	sh[0].Record(3 * time.Millisecond)
	sh[0].Record(2 * time.Millisecond)
	sh[1].Record(5 * time.Millisecond)
	n1.Finish(1, []string{"uncompr"}, nil)

	qs := c.Finish(nil)
	if qs.Failed || qs.Err != "" {
		t.Fatalf("successful execution marked failed: %+v", qs)
	}
	if qs.Query == 0 {
		t.Fatalf("query id not assigned")
	}
	if qs.Wall <= 0 {
		t.Fatalf("wall time %v not positive", qs.Wall)
	}
	if len(qs.Nodes) != 2 {
		t.Fatalf("tree has %d nodes, want 2", len(qs.Nodes))
	}
	scan := qs.Nodes[0]
	if scan.Node != 0 || scan.Name != "lo_price" || scan.Op != "scan" {
		t.Fatalf("scan identity wrong: %+v", scan)
	}
	if !scan.Started || !scan.Done || scan.OutValues != 1000 {
		t.Fatalf("scan outcome wrong: %+v", scan)
	}
	agg := qs.Nodes[1]
	if agg.InValues != 1000 || agg.OutValues != 1 {
		t.Fatalf("agg cardinalities wrong: %+v", agg)
	}
	if agg.Morsels != 3 || agg.Kernel != 10*time.Millisecond {
		t.Fatalf("agg shard merge wrong: morsels=%d kernel=%v", agg.Morsels, agg.Kernel)
	}
	if agg.Workers != 2 {
		t.Fatalf("agg workers = %d, want 2", agg.Workers)
	}
	if len(agg.Inputs) != 1 || agg.Inputs[0] != 0 {
		t.Fatalf("agg inputs wrong: %v", agg.Inputs)
	}
}

// TestShardsGrowAndAccumulate checks that successive morsel loops of one
// operator (kernel pass, then stitch) reuse and grow the shard slice and
// that Finish re-merges rather than double-counts.
func TestShardsGrowAndAccumulate(t *testing.T) {
	c := NewCollectorFor(ReserveQueryID(), 1, nil)
	c.Define(0, "v", "select", nil)
	nc := c.Node(0)
	nc.Begin(10)

	first := nc.Shards(2)
	first[0].Record(time.Millisecond)
	first[1].Record(time.Millisecond)

	second := nc.Shards(4) // wider second loop grows the slice
	if len(second) != 4 {
		t.Fatalf("Shards(4) returned %d slots", len(second))
	}
	if second[0].Morsels != 1 || second[1].Morsels != 1 {
		t.Fatalf("growth dropped the first loop's counts: %+v", second[:2])
	}
	second[3].Record(2 * time.Millisecond)

	if again := nc.Shards(1); len(again) != 4 {
		t.Fatalf("narrower loop shrank the shard slice to %d", len(again))
	}

	nc.Finish(5, nil, nil)
	qs := c.Finish(nil)
	ns := qs.Nodes[0]
	if ns.Morsels != 3 || ns.Kernel != 4*time.Millisecond {
		t.Fatalf("accumulated morsels=%d kernel=%v, want 3 and 4ms", ns.Morsels, ns.Kernel)
	}
	if ns.Workers != 4 {
		t.Fatalf("workers = %d, want the widest loop (4)", ns.Workers)
	}
}

// TestPartialTreeOnFailure checks the failure shape: the failing node keeps
// its error and loses Done, never-started nodes stay unstarted but labelled.
func TestPartialTreeOnFailure(t *testing.T) {
	c := NewCollectorFor(ReserveQueryID(), 3, nil)
	c.Define(0, "a", "scan", nil)
	c.Define(1, "b", "select", []int{0})
	c.Define(2, "c", "sum", []int{1})

	c.Node(0).Begin(0)
	c.Node(0).Finish(100, []string{"uncompr"}, nil)
	c.Node(1).Begin(100)
	c.Node(1).Finish(0, nil, errors.New("kernel exploded"))
	// node 2 never dispatched

	qs := c.Finish(errors.New("query failed: kernel exploded"))
	if !qs.Failed || !strings.Contains(qs.Err, "kernel exploded") {
		t.Fatalf("failure not recorded: %+v", qs)
	}
	if !qs.Nodes[0].Done {
		t.Fatalf("completed upstream node lost its Done flag")
	}
	bad := qs.Nodes[1]
	if !bad.Started || bad.Done || bad.Err != "kernel exploded" {
		t.Fatalf("failing node shape wrong: %+v", bad)
	}
	never := qs.Nodes[2]
	if never.Started || never.Done || never.Err != "" {
		t.Fatalf("never-started node shape wrong: %+v", never)
	}
	if never.Name != "c" || never.Op != "sum" {
		t.Fatalf("never-started node lost its Define labels: %+v", never)
	}
}

// TestQueryIDsDistinct checks executions draw distinct process-wide ids.
func TestQueryIDsDistinct(t *testing.T) {
	a := NewCollectorFor(ReserveQueryID(), 1, nil).Finish(nil)
	b := NewCollectorFor(ReserveQueryID(), 1, nil).Finish(nil)
	if a.Query == b.Query {
		t.Fatalf("two executions shared query id %d", a.Query)
	}
}

// TestJSONLTracer decodes every line the tracer writes for a traced node and
// checks types, ordering, monotonic offsets, and payloads.
func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	c := NewCollectorFor(ReserveQueryID(), 1, tr)
	c.Define(0, "v", "select", nil)
	nc := c.Node(0)
	nc.Begin(10)
	nc.SeqFallback()
	nc.Finish(4, []string{"rle"}, nil)
	c.Finish(nil)
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	type line struct {
		T    string `json:"t"`
		AtNS int64  `json:"at_ns"`
		Span
		Event *Event     `json:"event"`
		Stats *NodeStats `json:"stats"`
	}
	var lines []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	wantT := []string{"begin", "event", "end"}
	if len(lines) != len(wantT) {
		t.Fatalf("got %d lines, want %d", len(lines), len(wantT))
	}
	prev := int64(-1)
	for i, l := range lines {
		if l.T != wantT[i] {
			t.Fatalf("line %d type %q, want %q", i, l.T, wantT[i])
		}
		if l.Name != "v" || l.Op != "select" || l.Node != 0 {
			t.Fatalf("line %d span wrong: %+v", i, l.Span)
		}
		if l.AtNS < prev {
			t.Fatalf("line %d at_ns %d went backwards (prev %d)", i, l.AtNS, prev)
		}
		prev = l.AtNS
	}
	if ev := lines[1].Event; ev == nil || ev.Kind != EvSeqFallback || ev.Value != 1 {
		t.Fatalf("fallback event wrong: %+v", lines[1].Event)
	}
	st := lines[2].Stats
	if st == nil || !st.Done || st.OutValues != 4 || len(st.Formats) != 1 || st.Formats[0] != "rle" {
		t.Fatalf("end stats wrong: %+v", st)
	}
	if !st.SeqFallback {
		t.Fatalf("end stats lost the fallback flag: %+v", st)
	}
}

// TestJSONLTracerErrRetained checks the first write error is kept.
func TestJSONLTracerErrRetained(t *testing.T) {
	tr := NewJSONLTracer(failWriter{})
	tr.Begin(Span{Query: 1}, time.Now())
	tr.Event(Span{Query: 1}, time.Now(), Event{Kind: EvSeqFallback, Value: 1})
	if err := tr.Err(); err == nil || err.Error() != "sink full" {
		t.Fatalf("Err() = %v, want the first write failure", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink full") }

// TestJSONLTracerConcurrent hammers one tracer from several goroutines under
// the race detector; output must stay one valid JSON object per line.
func TestJSONLTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	safe := &lockedBuffer{buf: &buf}
	tr := NewJSONLTracer(safe)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := Span{Query: uint64(g), Node: g, Name: "n", Op: "select"}
			for i := 0; i < 50; i++ {
				tr.Begin(s, time.Now())
				tr.Event(s, time.Now(), Event{Kind: EvSeqFallback, Value: int64(i)})
				tr.End(s, time.Now(), NodeStats{Node: g, Done: true})
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("interleaved/corrupt line %d: %v", n, err)
		}
		n++
	}
	if want := 4 * 50 * 3; n != want {
		t.Fatalf("got %d lines, want %d", n, want)
	}
}

// lockedBuffer makes bytes.Buffer safe for the concurrent tracer test; the
// tracer serializes writes itself, but the race detector should prove that,
// not the sink. A plain buffer would make a tracer locking bug look like a
// sink bug, so the sink locks independently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
