package wal

import (
	"bytes"
	"errors"
	"testing"

	"morphstore/internal/qerr"
)

// TestRoundTrip frames records of several sizes back to back and reads them
// out again in order.
func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {0}, []byte("payload"), bytes.Repeat([]byte{0xAB}, 1000)}
	var j []byte
	for i, p := range payloads {
		j = Append(j, byte(i+1), p)
	}
	rest := j
	for i, want := range payloads {
		kind, payload, r, err := Next(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if kind != byte(i+1) || !bytes.Equal(payload, want) {
			t.Fatalf("record %d: kind %d payload %x, want kind %d payload %x", i, kind, payload, i+1, want)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last record", len(rest))
	}
}

// TestNextRejectsCorruption cuts one record at every length and flips a bit
// at every offset, kind byte and length field included: each is an error
// matching ErrCorruptData, never a panic and never a wrong record.
func TestNextRejectsCorruption(t *testing.T) {
	good := Append(nil, 3, []byte("some payload bytes"))
	for n := 0; n < len(good); n++ {
		if _, _, _, err := Next(good[:n]); !errors.Is(err, qerr.ErrCorruptData) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptData", n, err)
		}
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if _, _, _, err := Next(bad); !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("bit %d of byte %d flipped: err = %v, want ErrCorruptData", bit, i, err)
			}
		}
	}
}
