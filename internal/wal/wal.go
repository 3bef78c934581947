// Package wal is the record framing of the engine's journals — today only
// the dictionary journal: a journal is a concatenation of length-prefixed,
// checksummed records, so truncation and bit flips are detected
// deterministically. The typed payloads live with their owner
// (internal/dict); this package knows only the frame.
//
// Record layout (little-endian):
//
//	u8  kind        owner-defined record kind
//	u32 payloadLen  bytes of payload
//	[]  payload
//	u64 checksum    FNV-1a over kind, payloadLen, payload
package wal

import (
	"encoding/binary"
	"fmt"

	"morphstore/internal/qerr"
)

const (
	headerLen   = 5 // kind + payload length
	checksumLen = 8

	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues a 64-bit FNV-1a hash over b.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Append frames one record — header, payload, checksum — onto dst.
func Append(dst []byte, kind byte, payload []byte) []byte {
	var hdr [headerLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	sum := fnv1a(fnv1a(fnvOffset, hdr[:]), payload)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint64(dst, sum)
}

// Next unframes the first record of b: its kind, its payload (aliasing b)
// and the bytes after it. A truncated header or payload and a checksum
// mismatch are errors matching qerr.ErrCorruptData; Next never panics and
// allocates nothing, whatever the length field claims.
func Next(b []byte) (kind byte, payload, rest []byte, err error) {
	if len(b) < headerLen+checksumLen {
		return 0, nil, nil, corrupt("truncated record header (%d bytes)", len(b))
	}
	plen := int(binary.LittleEndian.Uint32(b[1:headerLen]))
	if plen > len(b)-headerLen-checksumLen {
		return 0, nil, nil, corrupt("truncated record payload (%d of %d bytes)", len(b)-headerLen-checksumLen, plen)
	}
	payload = b[headerLen : headerLen+plen]
	sum := binary.LittleEndian.Uint64(b[headerLen+plen:])
	if want := fnv1a(fnv1a(fnvOffset, b[:headerLen]), payload); sum != want {
		return 0, nil, nil, corrupt("checksum mismatch")
	}
	return b[0], payload, b[headerLen+plen+checksumLen:], nil
}

// corrupt wraps a framing defect with the corruption sentinel.
func corrupt(format string, args ...any) error {
	return qerr.Tag(fmt.Errorf("wal: "+format, args...), qerr.ErrCorruptData)
}
