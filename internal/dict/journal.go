package dict

import (
	"encoding/binary"
	"fmt"

	"morphstore/internal/qerr"
	"morphstore/internal/wal"
)

// This file implements the dictionary journal wire codec on internal/wal's
// record framing: every record is length-prefixed and FNV-1a checksummed,
// the decoder never panics, never allocates proportionally to an unvalidated
// length, and classifies every structural defect as qerr.ErrCorruptData
// (FuzzDictJournal drives this).
//
// Add payload: u32 count, then count strings as u16 length + bytes. IDs are
// implicit: the i-th string of the journal (across records) has ID i, the
// same first-occurrence order Add assigns. The journal is append-only:
// records are never rewritten, since IDs never change.
const (
	recAdd = 1

	maxStrLen = 1<<16 - 1
)

// corrupt wraps a journal decoding defect with the corruption sentinel.
func corrupt(format string, args ...any) error {
	return qerr.Tag(fmt.Errorf("dict: journal: "+format, args...), qerr.ErrCorruptData)
}

// encodeAdd appends an add record for the fresh strings, in ID order.
func encodeAdd(dst []byte, strs []string) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(strs)))
	for _, s := range strs {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(s)))
		payload = append(payload, s...)
	}
	return wal.Append(dst, recAdd, payload)
}

// readRecord decodes the first record of b into strs (in ID order) and
// returns the remaining bytes. Every defect — truncation, a bad checksum, an
// unknown kind, an oversized string, trailing bytes — is an error matching
// qerr.ErrCorruptData.
func readRecord(b []byte) ([]string, []byte, error) {
	kind, payload, rest, err := wal.Next(b)
	if err != nil {
		return nil, nil, err
	}
	if kind != recAdd {
		return nil, nil, corrupt("unknown record kind %d", kind)
	}
	strs, err := decodeAdd(payload)
	return strs, rest, err
}

// decodeAdd parses an add payload.
func decodeAdd(p []byte) ([]string, error) {
	if len(p) < 4 {
		return nil, corrupt("add record: truncated count")
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if count == 0 {
		return nil, corrupt("add record: zero strings")
	}
	// The count is unvalidated input: cap the allocation hint, the loop is
	// bounded by the payload length checks.
	strs := make([]string, 0, min(count, 64))
	for i := 0; i < count; i++ {
		if len(p) < 2 {
			return nil, corrupt("add record: truncated string length")
		}
		slen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < slen {
			return nil, corrupt("add record: truncated string (%d of %d bytes)", len(p), slen)
		}
		strs = append(strs, string(p[:slen]))
		p = p[slen:]
	}
	if len(p) != 0 {
		return nil, corrupt("add record: %d trailing payload bytes", len(p))
	}
	return strs, nil
}

// Replay rebuilds a dictionary from a journal previously returned by
// Dict.Journal: the result holds the same string→ID mapping. A journal that
// is truncated, bit-flipped, or contains duplicate strings returns an error
// matching qerr.ErrCorruptData; Replay never panics on hostile input.
func Replay(journal []byte) (*Dict, error) {
	d := New()
	for len(journal) > 0 {
		strs, rest, err := readRecord(journal)
		if err != nil {
			return nil, err
		}
		journal = rest
		s := d.cur.Load()
		seen := make(map[string]struct{}, len(strs))
		for _, str := range strs {
			if _, ok := s.ids[str]; ok {
				return nil, corrupt("duplicate string %q", str)
			}
			if _, ok := seen[str]; ok {
				return nil, corrupt("duplicate string %q", str)
			}
			seen[str] = struct{}{}
		}
		d.journal = encodeAdd(d.journal, strs)
		d.publish(s, strs)
	}
	return d, nil
}
