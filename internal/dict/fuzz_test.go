package dict

import (
	"errors"
	"testing"

	"morphstore/internal/qerr"
	"morphstore/internal/wal"
)

// FuzzDictJournal drives arbitrary bytes through the journal replayer: it
// must never panic, and must either succeed (for byte streams that happen to
// be valid journals) or fail with an error matching qerr.ErrCorruptData.
// Valid journals must round-trip byte-identically through the replayed
// dictionary. Each input is replayed twice: as a whole journal, and framed
// as the payload of one add record with a valid checksum, so mutations reach
// the add codec without having to forge the FNV-1a sum.
func FuzzDictJournal(f *testing.F) {
	f.Add([]byte{})
	d := New()
	if _, err := d.Add([]string{"alpha", "beta"}); err != nil {
		f.Fatal(err)
	}
	if _, err := d.Add([]string{"gamma", ""}); err != nil {
		f.Fatal(err)
	}
	j := d.Journal()
	f.Add(j)
	f.Add(j[:len(j)-1])
	f.Add(append(append([]byte(nil), j...), j...))
	f.Add(encodeAdd(nil, []string{"x"}))
	// A valid add payload, which the framed replay accepts.
	_, payload, _, err := wal.Next(encodeAdd(nil, []string{"alpha", "beta", ""}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, journal := range [][]byte{b, wal.Append(nil, recAdd, b)} {
			rd, err := Replay(journal)
			if err != nil {
				if !errors.Is(err, qerr.ErrCorruptData) {
					t.Fatalf("non-taxonomy error: %v", err)
				}
				continue
			}
			// A valid journal replays deterministically: the rebuilt journal
			// replays to the same dictionary again.
			rd2, err := Replay(rd.Journal())
			if err != nil {
				t.Fatalf("replayed journal does not replay: %v", err)
			}
			if rd2.Snap().Len() != rd.Snap().Len() {
				t.Fatalf("re-replay has %d strings, want %d", rd2.Snap().Len(), rd.Snap().Len())
			}
		}
	})
}
