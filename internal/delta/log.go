package delta

import (
	"encoding/binary"
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/qerr"
	"morphstore/internal/wal"
)

// This file implements the delta append-log wire codec: the journal a Table
// keeps of every mutation since its last remorph swap. Each record is
// length-prefixed and checksummed, so a truncated or bit-flipped journal is
// detected deterministically — the decoder never panics and classifies every
// structural defect as qerr.ErrCorruptData (FuzzDeltaLog drives this
// contract). Replay applies a journal onto a table's main columns,
// reproducing the delta it recorded.
//
// The record framing (kind, length, payload, FNV-1a checksum) is
// internal/wal's; this file owns the two payloads. Append payload: u32 ncols,
// u32 nrows, then per column (sorted by name): u16 name length, name bytes,
// nrows u64 values. Delete payload: u32 count, then count u64 absolute
// positions (strictly ascending).
const (
	recAppend = 1
	recDelete = 2
)

// corrupt wraps a journal decoding defect with the corruption sentinel.
func corrupt(format string, args ...any) error {
	return qerr.Tag(fmt.Errorf("delta: journal: "+format, args...), qerr.ErrCorruptData)
}

// encodeAppend appends an append record for n rows of the given columns.
// The payload is sized once, so a large batch is not copied as it grows.
func encodeAppend(dst []byte, cols []string, rows map[string][]uint64, n int) []byte {
	size := 8
	for _, cn := range cols {
		size += 2 + len(cn) + 8*n
	}
	payload := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(cols)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(n))
	for _, cn := range cols {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(cn)))
		payload = append(payload, cn...)
		for _, v := range rows[cn][:n] {
			payload = binary.LittleEndian.AppendUint64(payload, v)
		}
	}
	return wal.Append(dst, recAppend, payload)
}

// encodeDelete appends a delete record for the sorted absolute positions.
func encodeDelete(dst []byte, abs []uint64) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(abs)))
	for _, p := range abs {
		payload = binary.LittleEndian.AppendUint64(payload, p)
	}
	return wal.Append(dst, recDelete, payload)
}

// record is one decoded journal record: an append batch (Rows) or a delete
// set (Deleted).
type record struct {
	kind    byte
	rows    map[string][]uint64 // recAppend: per-column values
	n       int                 // recAppend: row count
	deleted []uint64            // recDelete: absolute positions, ascending
}

// readRecord decodes the first record of b and returns the remaining bytes.
// Every defect — truncation, a bad checksum, an unknown kind, inconsistent
// counts — is an error matching qerr.ErrCorruptData; readRecord never
// panics and never allocates proportionally to an unvalidated length field.
func readRecord(b []byte) (record, []byte, error) {
	kind, payload, rest, err := wal.Next(b)
	if err != nil {
		return record{}, nil, err
	}
	switch kind {
	case recAppend:
		rec, err := decodeAppend(payload)
		return rec, rest, err
	case recDelete:
		rec, err := decodeDelete(payload)
		return rec, rest, err
	}
	return record{}, nil, corrupt("unknown record kind %d", kind)
}

// decodeAppend parses an append payload.
func decodeAppend(p []byte) (record, error) {
	if len(p) < 8 {
		return record{}, corrupt("append record: truncated counts")
	}
	ncols := int(binary.LittleEndian.Uint32(p))
	n := int(binary.LittleEndian.Uint32(p[4:]))
	p = p[8:]
	// The column count is unvalidated input: cap the map size hint, the loop
	// itself is bounded by the payload length checks.
	rows := make(map[string][]uint64, min(ncols, 64))
	for c := 0; c < ncols; c++ {
		if len(p) < 2 {
			return record{}, corrupt("append record: truncated column name length")
		}
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen {
			return record{}, corrupt("append record: truncated column name")
		}
		name := string(p[:nameLen])
		p = p[nameLen:]
		if len(p) < n*8 {
			return record{}, corrupt("append record: column %q has %d bytes of values, want %d", name, len(p), n*8)
		}
		if _, ok := rows[name]; ok {
			return record{}, corrupt("append record: duplicate column %q", name)
		}
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(p[i*8:])
		}
		rows[name] = vals
		p = p[n*8:]
	}
	if len(p) != 0 {
		return record{}, corrupt("append record: %d trailing payload bytes", len(p))
	}
	if n == 0 {
		return record{}, corrupt("append record: zero rows")
	}
	return record{kind: recAppend, rows: rows, n: n}, nil
}

// decodeDelete parses a delete payload.
func decodeDelete(p []byte) (record, error) {
	if len(p) < 4 {
		return record{}, corrupt("delete record: truncated count")
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) != count*8 {
		return record{}, corrupt("delete record: %d bytes of positions, want %d", len(p), count*8)
	}
	if count == 0 {
		return record{}, corrupt("delete record: zero positions")
	}
	abs := make([]uint64, count)
	for i := range abs {
		abs[i] = binary.LittleEndian.Uint64(p[i*8:])
		if i > 0 && abs[i] <= abs[i-1] {
			return record{}, corrupt("delete record: positions not strictly ascending")
		}
	}
	return record{kind: recDelete, deleted: abs}, nil
}

// Replay rebuilds a writable table from its main columns and a journal
// previously returned by Table.Journal: the returned table holds the same
// delta (tail, deletions, journal) the source table had. A journal that is
// truncated, bit-flipped, or inconsistent with main returns an error
// matching qerr.ErrCorruptData; Replay never panics on hostile input.
func Replay(name string, main map[string]*columns.Column, journal []byte) (*Table, error) {
	t, err := NewTable(name, main)
	if err != nil {
		return nil, err
	}
	for len(journal) > 0 {
		rec, rest, err := readRecord(journal)
		if err != nil {
			return nil, err
		}
		journal = rest
		if err := t.replay(rec); err != nil {
			return nil, qerr.Tag(err, qerr.ErrCorruptData)
		}
	}
	return t, nil
}

// replay applies one decoded record to the table. Append records reuse the
// validated Append path; delete records carry absolute positions and splice
// directly into the deletion set.
func (t *Table) replay(rec record) error {
	if rec.kind == recAppend {
		_, _, err := t.Append(rec.rows)
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	total := uint64(s.mainRows + s.tailRows)
	di := 0
	for _, d := range rec.deleted {
		if d >= total {
			return fmt.Errorf("delta: journal: delete position %d out of range (%d rows)", d, total)
		}
		for di < len(s.deleted) && s.deleted[di] < d {
			di++
		}
		if di < len(s.deleted) && s.deleted[di] == d {
			return fmt.Errorf("delta: journal: position %d deleted twice", d)
		}
	}
	t.journal = encodeDelete(t.journal, rec.deleted)
	nd := mergeSorted(s.deleted, rec.deleted)
	ns := newState(s.epoch+1, s.main, s.mainRows, s.tail, s.tailRows, nd)
	t.cur.Store(ns)
	return nil
}
