package delta

import (
	"encoding/hex"
	"errors"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/qerr"
)

// fuzzMain is the fixed main the fuzz target replays journals onto.
func fuzzMain() map[string]*columns.Column {
	return map[string]*columns.Column{
		"a": columns.FromValues([]uint64{1, 2, 3, 4, 5, 6, 7, 8}),
		"b": columns.FromValues([]uint64{10, 20, 30, 40, 50, 60, 70, 80}),
	}
}

// fuzzJournal builds a valid journal to seed the corpus.
func fuzzJournal(tb testing.TB) []byte {
	tab, err := NewTable("t", fuzzMain())
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"a": {100, 101}, "b": {200, 201}}); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := tab.Delete([]uint64{0, 9}); err != nil {
		tb.Fatal(err)
	}
	return tab.Journal()
}

// TestReplayRejectsCorruption checks the decoder classifies structural
// defects as ErrCorruptData: truncation at every length and a bit flip at
// every offset.
func TestReplayRejectsCorruption(t *testing.T) {
	good := fuzzJournal(t)
	if _, err := Replay("t", fuzzMain(), good); err != nil {
		t.Fatalf("valid journal rejected: %v", err)
	}
	// Truncation at an exact record boundary is a valid shorter journal;
	// anywhere else the decoder must flag corruption.
	boundary := map[int]bool{0: true}
	for rest := good; len(rest) > 0; {
		_, r, err := readRecord(rest)
		if err != nil {
			t.Fatal(err)
		}
		boundary[len(good)-len(r)] = true
		rest = r
	}
	for n := 1; n < len(good); n++ {
		_, err := Replay("t", fuzzMain(), good[:n])
		if boundary[n] {
			if err != nil {
				t.Fatalf("record-boundary truncation at %d rejected: %v", n, err)
			}
			continue
		}
		if !errors.Is(err, qerr.ErrCorruptData) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptData", n, err)
		}
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := Replay("t", fuzzMain(), bad); err == nil {
			// A flip inside u64 values can survive the checksum only if it
			// also fixed the checksum — impossible for a single flip.
			t.Fatalf("bit flip at %d went undetected", i)
		} else if !errors.Is(err, qerr.ErrCorruptData) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorruptData", i, err)
		}
	}
}

// TestJournalGoldenRecords pins the journal wire format across commits: one
// append and one delete record, recorded at the commit before the framing
// moved to internal/wal, must come out byte-for-byte the same and replay.
func TestJournalGoldenRecords(t *testing.T) {
	const (
		goldenAppend = "012f000000020000000200000001006107000000000000000000000000010000020062620000000000000000ffffffffffffffffdbe9b6fcf0bd8ff5"
		goldenDelete = "02140000000200000000000000000000000400000000000000d71d457910e52316"
	)
	main := map[string]*columns.Column{
		"a":  columns.FromValues([]uint64{1, 2, 3}),
		"bb": columns.FromValues([]uint64{4, 5, 6}),
	}
	tab, err := NewTable("t", main)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"a": {7, 1 << 40}, "bb": {0, ^uint64(0)}}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(tab.Journal()); got != goldenAppend {
		t.Fatalf("append record\n got %s\nwant %s", got, goldenAppend)
	}
	if _, _, err := tab.Delete([]uint64{4, 0}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(tab.Journal()); got != goldenAppend+goldenDelete {
		t.Fatalf("delete record\n got %s\nwant %s", got[len(goldenAppend):], goldenDelete)
	}
	rt, err := Replay("t", main, tab.Journal())
	if err != nil {
		t.Fatal(err)
	}
	if rt.State().Rows() != 3 || rt.State().TailRows() != 2 || rt.State().DeletedRows() != 2 {
		t.Fatalf("golden journal replayed to %d rows (%d tail, %d deleted)",
			rt.State().Rows(), rt.State().TailRows(), rt.State().DeletedRows())
	}
}

// FuzzDeltaLog feeds arbitrary bytes to the journal decoder: Replay must
// never panic, and every failure must match qerr.ErrCorruptData.
func FuzzDeltaLog(f *testing.F) {
	good := fuzzJournal(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte{recAppend, 0, 0, 0, 0})
	f.Add([]byte{recDelete, 4, 0, 0, 0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Replay("t", fuzzMain(), data)
		if err != nil {
			if !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("Replay error not classified as ErrCorruptData: %v", err)
			}
			return
		}
		// A journal that replays must produce a readable table.
		s := tab.State()
		for _, cn := range tab.Columns() {
			col, err := s.Column(cn)
			if err != nil {
				t.Fatalf("replayed table unreadable: %v", err)
			}
			if col.N() != s.Rows() {
				t.Fatalf("replayed column %q has %d rows, state says %d", cn, col.N(), s.Rows())
			}
		}
	})
}
