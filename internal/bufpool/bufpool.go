// Package bufpool recycles the word buffers of query intermediates. An
// engine owns one Pool; each execution draws on it through a Lease, which
// records the buffers it issued so that a buffer goes back to the pool only
// from the lease that issued it, and only once. A nil Lease is the unpooled
// mode: Get is make and Put keeps nothing, so a writer built without a pool
// runs the same code as one built with it.
//
// Buffers come in power-of-two size classes and are handed out dirty: every
// user overwrites the words it exposes. The pool keeps what is put back up
// to a retention cap derived from what it has seen: four times the most
// bytes one lease held at once, times the most leases open at once. One
// working set is not enough to recycle everything, because a free buffer
// serves only requests of its own class and consecutive plans ask for
// different classes: a sweep of the 13 SSB plans at SF 0.2 retains 1.0 to
// 2.5 times its largest working set, depending on the data.
package bufpool

import (
	"errors"
	"math/bits"
	"slices"
	"sync"
)

const (
	// minClass is the smallest size class: 16 words. A smaller request gets
	// a buffer of this class.
	minClass = 4
	// retainFactor is the retention cap in working sets (see the package
	// comment).
	retainFactor = 4
)

// poisonReleased, set by tests, fills every buffer put back with poisonWord,
// so a reader that outlives its column's release reads an obvious sentinel
// instead of plausible stale values.
var poisonReleased bool

const poisonWord = 0xDEAD_BEEF_DEAD_BEEF

// ErrNotIssued reports a Put of a buffer the lease did not issue, or issued
// and took back already. The buffer is not retained.
var ErrNotIssued = errors.New("bufpool: buffer not issued by this lease, or already released")

// Pool is an engine's store of free word buffers. It is safe for concurrent
// use; a nil *Pool opens nil leases.
type Pool struct {
	mu   sync.Mutex
	free [64][][]uint64 // by class: buffers of 1<<class words
	held int64          // bytes on the free lists
	// The retention cap is retainFactor × peakLease × peakOpen: the most
	// bytes one lease held at once, and the most leases open at once.
	peakLease int64
	open      int
	peakOpen  int
	drained   bool // after Drain nothing is retained
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Held returns the bytes of the buffers the pool retains.
func (p *Pool) Held() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// Limit returns the retention cap: Held never exceeds it.
func (p *Pool) Limit() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limit()
}

func (p *Pool) limit() int64 { return retainFactor * p.peakLease * int64(p.peakOpen) }

// Leases returns the number of leases open.
func (p *Pool) Leases() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.open
}

// Drain drops every retained buffer; from then on the pool retains nothing,
// and leases still open allocate and release as if unpooled.
func (p *Pool) Drain() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = [64][][]uint64{}
	p.held = 0
	p.drained = true
}

// Lease opens a lease on the pool; nil for a nil pool.
func (p *Pool) Lease() *Lease {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.open++
	p.peakOpen = max(p.peakOpen, p.open)
	return &Lease{p: p, out: make(map[*uint64][]uint64)}
}

// Lease is one user's view of the pool — one execution or operator call. It
// is safe for concurrent use by that user's workers.
type Lease struct {
	p      *Pool
	out    map[*uint64][]uint64 // issued and not put back, whole; guarded by p.mu
	bytes  int64                // bytes of the buffers in out
	closed bool
}

// Out returns the bytes of the buffers the lease issued and has not taken
// back.
func (l *Lease) Out() int64 {
	if l == nil {
		return 0
	}
	l.p.mu.Lock()
	defer l.p.mu.Unlock()
	return l.bytes
}

// class returns the size class of an n-word request.
func class(n int) int { return max(minClass, bits.Len(uint(n-1))) }

// key identifies a buffer by its first word.
func key(buf []uint64) *uint64 { return &buf[:1][0] }

// Get returns a buffer of n words, len n; its contents are undefined. A nil
// lease allocates exactly n words. An empty request gets an empty, non-nil
// slice, as from make.
func (l *Lease) Get(n int) []uint64 {
	if n <= 0 {
		return []uint64{}
	}
	if l == nil {
		return make([]uint64, n)
	}
	c := class(n)
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf []uint64
	if free := p.free[c]; len(free) > 0 {
		buf = free[len(free)-1]
		p.free[c] = free[:len(free)-1]
		p.held -= 8 << c
	} else {
		buf = make([]uint64, 1<<c)
	}
	if !l.closed {
		l.out[key(buf)] = buf
		l.bytes += 8 << c
		p.peakLease = max(p.peakLease, l.bytes)
	}
	return buf[:n]
}

// Put gives a buffer back. Only a buffer this lease issued and has not taken
// back is accepted; anything else returns ErrNotIssued and is left alone.
// The pool retains the buffer while that keeps it within its cap. A nil
// lease, an empty buffer and a closed lease accept everything and retain
// nothing.
func (l *Lease) Put(buf []uint64) error {
	if l == nil || cap(buf) == 0 {
		return nil
	}
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.closed {
		return nil
	}
	k := key(buf)
	buf, ok := l.out[k]
	if !ok {
		return ErrNotIssued
	}
	delete(l.out, k)
	size := int64(8 * len(buf))
	l.bytes -= size
	if poisonReleased {
		for i := range buf {
			buf[i] = poisonWord
		}
	}
	if !p.drained && p.held+size <= p.limit() {
		c := class(len(buf))
		p.free[c] = append(p.free[c], buf)
		p.held += size
	}
	return nil
}

// Grow returns buf with room for n more words beyond its length, its
// contents kept: buf itself when its capacity suffices, otherwise a buffer
// of at least twice the capacity from the lease, with buf put back.
func (l *Lease) Grow(buf []uint64, n int) []uint64 {
	if l == nil {
		return slices.Grow(buf, n)
	}
	if len(buf)+n <= cap(buf) {
		return buf
	}
	nb := l.Get(max(len(buf)+n, 2*cap(buf)))[:len(buf)]
	copy(nb, buf)
	_ = l.Put(buf) // a buffer the lease did not issue is simply not recycled
	return nb
}

// Append is append(buf, vals...) drawing a grown buffer from the lease.
func (l *Lease) Append(buf []uint64, vals ...uint64) []uint64 {
	if l == nil {
		return append(buf, vals...)
	}
	return append(l.Grow(buf, len(vals)), vals...)
}

// Close ends the lease. The buffers it issued and did not take back stay
// with their holders as ordinary memory; the pool forgets them.
func (l *Lease) Close() {
	if l == nil {
		return
	}
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.out = nil
	l.bytes = 0
	p.open--
}
