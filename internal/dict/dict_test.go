package dict

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

func TestDictAddAssignsFirstOccurrenceIDs(t *testing.T) {
	d := New()
	ids, err := d.Add([]string{"cherry", "apple", "cherry", "banana", "apple"})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 1, 0, 2, 1}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	s := d.Snap()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if id, ok := s.ID("banana"); !ok || id != 2 {
		t.Fatalf("ID(banana) = %d,%v", id, ok)
	}
	if _, ok := s.ID("durian"); ok {
		t.Fatal("unknown string resolved")
	}
	if str, ok := s.String(1); !ok || str != "apple" {
		t.Fatalf("String(1) = %q,%v", str, ok)
	}
	if _, ok := s.String(3); ok {
		t.Fatal("out-of-range ID resolved")
	}
	got, err := s.Strings([]uint64{2, 0})
	if err != nil || !reflect.DeepEqual(got, []string{"banana", "cherry"}) {
		t.Fatalf("Strings = %v, %v", got, err)
	}
	if _, err := s.Strings([]uint64{9}); err == nil {
		t.Fatal("out-of-range Strings succeeded")
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes not positive")
	}
}

func TestDictSnapshotsAreImmutable(t *testing.T) {
	d := New()
	if _, err := d.Add([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	s1 := d.Snap()
	if _, err := d.Add([]string{"c", "d"}); err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 2 {
		t.Fatalf("pinned snapshot grew to %d", s1.Len())
	}
	if _, ok := s1.ID("c"); ok {
		t.Fatal("pinned snapshot sees later string")
	}
	if d.Snap().Len() != 4 {
		t.Fatalf("current snapshot has %d strings", d.Snap().Len())
	}
	for id, want := range []string{"a", "b"} {
		if got, ok := d.Snap().String(uint64(id)); !ok || got != want {
			t.Fatalf("append changed ID %d: %q,%v want %q", id, got, ok, want)
		}
	}
}

func TestDictPrefix(t *testing.T) {
	d := New()
	if _, err := d.Add([]string{"app", "apple", "apricot", "banana", "bar"}); err != nil {
		t.Fatal(err)
	}
	s := d.Snap()
	if ids := s.PrefixIDs("ap"); !reflect.DeepEqual(ids, []uint64{0, 1, 2}) {
		t.Fatalf("PrefixIDs(ap) = %v", ids)
	}
	if ids := s.PrefixIDs("zz"); len(ids) != 0 {
		t.Fatalf("absent prefix matched %v", ids)
	}
	if ids := s.PrefixIDs(""); !reflect.DeepEqual(ids, []uint64{0, 1, 2, 3, 4}) {
		t.Fatalf("PrefixIDs(empty) = %v", ids)
	}
	if ids := s.PrefixIDs("ba"); !reflect.DeepEqual(ids, []uint64{3, 4}) {
		t.Fatalf("PrefixIDs(ba) = %v", ids)
	}

	// Strings out of lexicographic order: the matching IDs need not be
	// contiguous.
	d2 := New()
	if _, err := d2.Add([]string{"beta", "alpha", "beak"}); err != nil {
		t.Fatal(err)
	}
	if ids := d2.Snap().PrefixIDs("be"); !reflect.DeepEqual(ids, []uint64{0, 2}) {
		t.Fatalf("PrefixIDs(be) = %v", ids)
	}
}

func TestDictJournalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := New()
	var all []string
	for batch := 0; batch < 20; batch++ {
		n := rng.Intn(8)
		strs := make([]string, n)
		for i := range strs {
			strs[i] = fmt.Sprintf("s%03d", rng.Intn(60))
		}
		if _, err := d.Add(strs); err != nil {
			t.Fatal(err)
		}
		all = append(all, strs...)
	}
	rd, err := Replay(d.Journal())
	if err != nil {
		t.Fatal(err)
	}
	if rd.Snap().Len() != d.Snap().Len() {
		t.Fatalf("replayed %d strings, want %d", rd.Snap().Len(), d.Snap().Len())
	}
	for _, s := range all {
		a, aok := d.Snap().ID(s)
		b, bok := rd.Snap().ID(s)
		if !aok || !bok || a != b {
			t.Fatalf("ID(%q): %d,%v vs replayed %d,%v", s, a, aok, b, bok)
		}
	}
	// Replayed journal bytes are identical.
	if !reflect.DeepEqual(rd.Journal(), d.Journal()) {
		t.Fatal("replayed journal differs")
	}
}

// TestDictJournalGoldenRecord pins the journal wire format across commits:
// the add record recorded at the commit before the framing moved to
// internal/wal must come out byte-for-byte the same and replay.
func TestDictJournalGoldenRecord(t *testing.T) {
	const golden = "011500000004000000050064656c74610000020062700200cf834e07316d204652a4"
	d := New()
	if _, err := d.Add([]string{"delta", "", "bp", "delta", "σ"}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(d.Journal()); got != golden {
		t.Fatalf("add record\n got %s\nwant %s", got, golden)
	}
	rd, err := Replay(d.Journal())
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := rd.Snap().ID("σ"); !ok || id != 3 {
		t.Fatalf("golden journal replayed ID(σ) = %d,%v, want 3", id, ok)
	}
}

func TestDictJournalCorruption(t *testing.T) {
	d := New()
	if _, err := d.Add([]string{"alpha", "beta", "gamma"}); err != nil {
		t.Fatal(err)
	}
	j := d.Journal()
	cases := map[string][]byte{
		"truncated header":  j[:3],
		"truncated payload": j[:len(j)-9],
		"bit flip":          flip(j, len(j)/2),
		"bad kind":          flip(j, 0),
		"trailing garbage":  append(append([]byte(nil), j...), 0xFF),
	}
	for name, b := range cases {
		if _, err := Replay(b); !errors.Is(err, qerr.ErrCorruptData) {
			t.Errorf("%s: err = %v, want ErrCorruptData", name, err)
		}
	}
	// Duplicate string across records.
	dup := append(append([]byte(nil), j...), encodeAdd(nil, []string{"beta"})...)
	if _, err := Replay(dup); !errors.Is(err, qerr.ErrCorruptData) {
		t.Errorf("duplicate: err = %v, want ErrCorruptData", err)
	}
	// Empty journal replays to an empty dict.
	if rd, err := Replay(nil); err != nil || rd.Snap().Len() != 0 {
		t.Errorf("empty replay: %v", err)
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

func TestDictOversizedString(t *testing.T) {
	d := New()
	if _, err := d.Add([]string{strings.Repeat("x", maxStrLen+1)}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("err = %v, want ErrInvalidSchema", err)
	}
	if d.Snap().Len() != 0 {
		t.Fatal("failed add mutated dict")
	}
}

func TestDictFaultPoints(t *testing.T) {
	defer faultpoint.DisarmAll()
	d := New()
	if _, err := d.Add([]string{"keep"}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")

	faultpoint.DictLookupMiss.Arm(func() error { return boom })
	if _, err := d.Add([]string{"fresh"}); !errors.Is(err, boom) {
		t.Fatalf("lookup-miss err = %v", err)
	}
	// Known strings do not take the miss path.
	if _, err := d.Add([]string{"keep"}); err != nil {
		t.Fatalf("known string hit the miss path: %v", err)
	}
	faultpoint.DictLookupMiss.Disarm()

	faultpoint.DictPersist.Arm(func() error { return boom })
	if _, err := d.Add([]string{"fresh"}); !errors.Is(err, boom) {
		t.Fatalf("persist err = %v", err)
	}
	faultpoint.DictPersist.Disarm()

	if d.Snap().Len() != 1 {
		t.Fatalf("failed adds mutated dict: %d strings", d.Snap().Len())
	}
	if _, err := d.Add([]string{"fresh"}); err != nil {
		t.Fatal(err)
	}
	if d.Snap().Len() != 2 {
		t.Fatal("add after disarm failed")
	}
}

func TestDictConcurrentAddAndSnap(t *testing.T) {
	d := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := d.Add([]string{fmt.Sprintf("w%d", i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		s := d.Snap()
		for id := 0; id < s.Len(); id++ {
			str, ok := s.String(uint64(id))
			if !ok {
				t.Fatalf("id %d missing", id)
			}
			if got, ok := s.ID(str); !ok || got != uint64(id) {
				t.Fatalf("ID(%q) = %d,%v want %d", str, got, ok, id)
			}
		}
	}
	<-done
}
