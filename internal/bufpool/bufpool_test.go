package bufpool

import (
	"errors"
	"sync"
	"testing"
)

// TestGetPutRecycles: a buffer put back is handed out again to the next
// request of its class, and only of its class.
func TestGetPutRecycles(t *testing.T) {
	p := New()
	l := p.Lease()
	defer l.Close()
	a := l.Get(1000) // class 10: 1024 words
	if len(a) != 1000 || cap(a) != 1024 {
		t.Fatalf("Get(1000): len %d cap %d, want 1000 and 1024", len(a), cap(a))
	}
	if err := l.Put(a); err != nil {
		t.Fatal(err)
	}
	if got := p.Held(); got != 8*1024 {
		t.Fatalf("held %d bytes, want %d", got, 8*1024)
	}
	if b := l.Get(600); &b[0] != &a[0] {
		t.Fatal("a request of the same class did not reuse the free buffer")
	}
	if c := l.Get(2000); &c[0] == &a[0] {
		t.Fatal("a request of another class got the buffer")
	}
}

// TestPutRejectsDoubleAndForeign: the pool takes back only what the lease
// issued, once, so neither a double release nor a buffer from elsewhere can
// make two columns share words.
func TestPutRejectsDoubleAndForeign(t *testing.T) {
	p := New()
	l := p.Lease()
	defer l.Close()
	a := l.Get(100)
	if err := l.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(a); !errors.Is(err, ErrNotIssued) {
		t.Fatalf("double release: %v, want ErrNotIssued", err)
	}
	if err := l.Put(make([]uint64, 128)); !errors.Is(err, ErrNotIssued) {
		t.Fatalf("foreign buffer: %v, want ErrNotIssued", err)
	}
	other := p.Lease()
	defer other.Close()
	b := other.Get(300) // another class: a stays on the free list
	if err := l.Put(b); !errors.Is(err, ErrNotIssued) {
		t.Fatalf("another lease's buffer: %v, want ErrNotIssued", err)
	}
	if got, want := p.Held(), int64(8*128); got != want {
		t.Fatalf("held %d bytes after the rejected puts, want %d", got, want)
	}
}

// TestRetentionCap: the pool never holds more than its cap, four times the most
// bytes one lease held at once times the most leases open at once.
func TestRetentionCap(t *testing.T) {
	p := New()
	l := p.Lease()
	bufs := [][]uint64{l.Get(1024), l.Get(1024)} // 16 KiB held at once
	for _, b := range bufs {
		_ = l.Put(b)
	}
	if got, want := p.Limit(), int64(4*16<<10); got != want {
		t.Fatalf("limit %d, want %d", got, want)
	}
	for i := 0; i < 8; i++ {
		_ = l.Put(l.Get(4096))
		_ = l.Put(l.Get(8))
	}
	if held, limit := p.Held(), p.Limit(); held > limit {
		t.Fatalf("held %d bytes over the cap %d", held, limit)
	}
	l.Close()
	if p.Held() == 0 {
		t.Fatal("nothing retained after the lease closed")
	}
	p.Drain()
	if got := p.Held(); got != 0 {
		t.Fatalf("held %d bytes after Drain", got)
	}
	l2 := p.Lease()
	defer l2.Close()
	_ = l2.Put(l2.Get(16))
	if got := p.Held(); got != 0 {
		t.Fatalf("held %d bytes put back after Drain", got)
	}
}

// TestClosedLeaseForgets: buffers a lease did not take back stay with their
// holders; after Close the lease neither tracks nor retains anything.
func TestClosedLeaseForgets(t *testing.T) {
	p := New()
	l := p.Lease()
	kept := l.Get(64)
	kept[0] = 7
	l.Close()
	if err := l.Put(kept); err != nil {
		t.Fatalf("put on a closed lease: %v", err)
	}
	if p.Held() != 0 || kept[0] != 7 {
		t.Fatal("a closed lease recycled a buffer it no longer owns")
	}
}

// TestPoison: with the test hook on, a released buffer holds the sentinel.
func TestPoison(t *testing.T) {
	poisonReleased = true
	defer func() { poisonReleased = false }()
	p := New()
	l := p.Lease()
	defer l.Close()
	a := l.Get(32)
	for i := range a {
		a[i] = uint64(i)
	}
	_ = l.Put(a)
	for i, w := range a[:cap(a)] {
		if w != poisonWord {
			t.Fatalf("word %d is %#x after release, want the sentinel", i, w)
		}
	}
}

// TestNilLeaseAllocates: the unpooled mode is plain allocation with the same
// calls.
func TestNilLeaseAllocates(t *testing.T) {
	var p *Pool
	l := p.Lease()
	if l != nil || p.Held() != 0 || p.Limit() != 0 {
		t.Fatal("a nil pool must open nil leases and hold nothing")
	}
	a := l.Get(100)
	if len(a) != 100 || cap(a) != 100 {
		t.Fatalf("nil lease Get(100): len %d cap %d", len(a), cap(a))
	}
	if err := l.Put(a); err != nil {
		t.Fatal(err)
	}
	if b := l.Append(a[:0], 1, 2, 3); len(b) != 3 || b[2] != 3 {
		t.Fatalf("nil lease Append: %v", b)
	}
	l.Close()
}

// TestGrowKeepsContents: Grow and Append move the words into a larger
// buffer from the lease and give the old one back.
func TestGrowKeepsContents(t *testing.T) {
	p := New()
	l := p.Lease()
	defer l.Close()
	var b []uint64
	for i := uint64(0); i < 5000; i++ {
		b = l.Append(b, i)
	}
	for i, v := range b {
		if v != uint64(i) {
			t.Fatalf("word %d is %d after growing", i, v)
		}
	}
	if err := l.Put(b); err != nil {
		t.Fatalf("the grown buffer is not the lease's: %v", err)
	}
	if p.Held() == 0 {
		t.Fatal("no outgrown buffer was recycled")
	}
}

// TestConcurrentLeases: several leases on one pool, each used by several
// goroutines, never hand one buffer to two holders (run under -race).
func TestConcurrentLeases(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for q := 0; q < 3; q++ {
		l := p.Lease()
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(tag uint64) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					b := l.Get(100 + i%300)
					for j := range b {
						b[j] = tag
					}
					for j, v := range b {
						if v != tag {
							t.Errorf("word %d of a held buffer changed to %d", j, v)
							return
						}
					}
					if err := l.Put(b); err != nil {
						t.Error(err)
						return
					}
				}
			}(uint64(q*3 + w))
		}
		defer l.Close()
	}
	wg.Wait()
	if held, limit := p.Held(), p.Limit(); held > limit {
		t.Fatalf("held %d bytes over the cap %d", held, limit)
	}
}
