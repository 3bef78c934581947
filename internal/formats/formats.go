// Package formats implements MorphStore-Go's corpus of lightweight integer
// compression formats on unsigned 64-bit data elements (paper §4.1).
//
// The paper's formats are cascades — a logical-level transform whose output a
// physical-level null-suppression packer stores — and the package is built
// the same way:
//
//   - Uncompressed: one word per element,
//   - StaticBP: the packer alone at one fixed bit width for the whole column,
//   - DynBP, DeltaBP, ForBP: the blocked codec of blocked.go — the packer at a
//     per-block width over 512-element blocks (the 64-bit port of
//     SIMD-BP128/512), behind the identity, DELTA or FOR transform. The three
//     differ only in their transform value; a new cascade is one more value
//     and one more registry row,
//   - RLE: run-length encoding (extension beyond the paper's five formats).
//
// Streaming is the only way in and out of a format: the two halves of the
// paper's buffer layer (Fig. 4) are a sequential Reader that decompresses
// into a caller-supplied cache-resident block, and a Writer that accepts
// uncompressed elements and compresses them block-wise. Compress and
// Decompress are those two run over a whole slice, and ConcatCompressed and
// AppendTail are the writer fed whole columns, whose words it copies where
// they start on one of its group or block boundaries. Readers and writers
// are what the on-the-fly de/re-compression operators in internal/ops wrap
// around their format-oblivious kernels.
//
// The physical layouts are private to this package. Code elsewhere that works
// on compressed data directly goes through the layout accessors: WalkBlocks
// (block headers and payloads of a blocked column), BlockHeaderBytes (size
// model) and AppendTail (extending a column without decoding its main part).
package formats

import (
	"errors"
	"fmt"

	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/qerr"
)

// BlockLen is the number of data elements per compressed block of the
// block-based formats (DynBP, DeltaBP, ForBP): the SIMD-BP512 block size.
const BlockLen = 512

// BufferLen is the default element capacity of the cache-resident buffers
// used between operators and codecs: 2048 elements = 16 KiB, half the size
// of a typical L1 data cache, exactly as in the paper's evaluation setup.
const BufferLen = 2048

// ErrSmallBuffer reports a Read destination smaller than one format block.
var ErrSmallBuffer = errors.New("formats: read buffer smaller than one block")

// ErrCorrupt reports structurally invalid compressed data. It wraps the
// engine taxonomy's qerr.ErrCorruptData, so every corruption error produced
// anywhere in the codec layer — all of them wrap ErrCorrupt with %w —
// matches both sentinels under errors.Is.
var ErrCorrupt = fmt.Errorf("formats: %w", qerr.ErrCorruptData)

// Reader sequentially decompresses a column into caller-supplied buffers,
// materializing uncompressed data only at cache-resident-block granularity.
type Reader interface {
	// Read decompresses up to len(dst) next elements into dst and returns
	// how many were produced. It returns (0, nil) once the column is
	// exhausted. For block-based formats len(dst) must be at least BlockLen
	// while the compressed main part is being consumed.
	Read(dst []uint64) (int, error)
}

// ValueViewer is implemented by readers that can expose the entire column as
// a zero-copy value slice (the uncompressed format). Operators use it as the
// "direct data access" fast path of the purely-uncompressed degree.
type ValueViewer interface {
	// View returns the whole remaining data without copying, or false.
	View() ([]uint64, bool)
}

// Writer accepts uncompressed elements and produces a compressed column.
// It is the output side of the paper's buffer layer: elements accumulate in
// an internal cache-resident buffer and are compressed block-wise; on Close
// whatever cannot fill a block becomes the column's uncompressed remainder.
type Writer interface {
	// Write appends the given uncompressed elements to the column.
	Write(vals []uint64) error
	// Close flushes all pending data and returns the finished column.
	Close() (*columns.Column, error)
}

// Codec is the streaming pair of one compressed format.
type Codec interface {
	// NewReader returns a sequential reader over col.
	NewReader(col *columns.Column) Reader
	// NewWriter returns a writer producing a column in this format. For
	// formats with a derivable parameter (StaticBP width) the descriptor may
	// leave it 0. sizeHint is the expected number of elements (0 if unknown).
	// The writer draws its buffers from bufs (nil: plain allocations).
	NewWriter(desc columns.FormatDesc, sizeHint int, bufs *bufpool.Lease) Writer
}

// format is the registry row of one format kind: its codec plus every
// per-format property the rest of the package dispatches on.
type format struct {
	Codec
	// partitionAlign is the element alignment of independently decodable
	// sections (0: the format cannot be sliced); section opens a reader over
	// one such section.
	partitionAlign int
	section        func(col *columns.Column, start, count int) Reader
	// access opens random read access (nil: the format has none, §4.2).
	access func(col *columns.Column) (RandomAccessor, error)
	// blocked is the transform of a blocked-codec format, nil otherwise.
	blocked *transform
}

var registry = [columns.NumKinds]format{
	columns.Uncompressed: {Codec: uncomprCodec{}, partitionAlign: 1, section: uncomprSection,
		access: uncomprAccess},
	columns.StaticBP: {Codec: staticBPCodec{}, partitionAlign: 64, section: staticBPSection,
		access: staticBPAccess},
	columns.DynBP:   blockedFormat(dynBP),
	columns.DeltaBP: blockedFormat(deltaBP),
	columns.ForBP:   blockedFormat(forBP),
	// A run boundary is only discoverable by scanning every preceding run,
	// so RLE cannot be sliced.
	columns.RLE: {Codec: rleCodec{}},
}

// lookup returns the registry row of a kind; an unknown kind gets the zero
// row: no codec, no alignment, no capability.
func lookup(kind columns.Kind) *format {
	if int(kind) >= len(registry) {
		return &format{}
	}
	return &registry[kind]
}

// codecOf returns the codec for the given kind.
func codecOf(kind columns.Kind) (Codec, error) {
	if c := lookup(kind).Codec; c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("formats: no codec for kind %v", kind)
}

// Compress materializes src as a new column in the requested format: the
// format's writer fed all of src at once.
func Compress(src []uint64, desc columns.FormatDesc) (*columns.Column, error) {
	w, err := NewWriter(desc, len(src))
	if err != nil {
		return nil, err
	}
	if err := w.Write(src); err != nil {
		return nil, err
	}
	return w.Close()
}

// Decompress expands col into a freshly allocated slice: the format's reader
// filling the destination in one pass.
func Decompress(col *columns.Column) ([]uint64, error) { return DecompressFrom(nil, col) }

// DecompressFrom is Decompress into a buffer from bufs; a nil bufs allocates
// it. On error the buffer is not given back.
func DecompressFrom(bufs *bufpool.Lease, col *columns.Column) ([]uint64, error) {
	dst := bufs.Get(col.N())
	if err := DecompressInto(dst, col); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecompressInto expands col into dst, which holds exactly col.N() elements.
func DecompressInto(dst []uint64, col *columns.Column) error {
	r, err := NewReader(col)
	if err != nil {
		return err
	}
	// Even an empty column is read once, so a reader's latched validation
	// error surfaces.
	for n := 0; ; {
		k, err := r.Read(dst[n:])
		if err != nil {
			return err
		}
		if n += k; n == len(dst) {
			return nil
		}
		if k == 0 {
			return fmt.Errorf("%w: %v column decodes to %d of %d elements", ErrCorrupt, col.Desc(), n, len(dst))
		}
	}
}

// NewReader returns a sequential reader over col in its own format.
func NewReader(col *columns.Column) (Reader, error) {
	c, err := codecOf(col.Desc().Kind)
	if err != nil {
		return nil, err
	}
	return c.NewReader(col), nil
}

// NewWriter returns a writer producing a column in the requested format.
func NewWriter(desc columns.FormatDesc, sizeHint int) (Writer, error) {
	return NewWriterFrom(nil, desc, sizeHint)
}

// NewWriterFrom is NewWriter drawing the writer's buffers, the finished
// column's words among them, from bufs; a nil bufs allocates them. Pooled
// buffers are dirty, so every writer overwrites each word it exposes.
func NewWriterFrom(bufs *bufpool.Lease, desc columns.FormatDesc, sizeHint int) (Writer, error) {
	c, err := codecOf(desc.Kind)
	if err != nil {
		return nil, err
	}
	return c.NewWriter(desc, sizeHint, bufs), nil
}

// PaperDescs returns the five formats implemented by the paper's MorphStore
// (§4.1): uncompressed, static BP, SIMD-BP512, DELTA+SIMD-BP512, and
// FOR+SIMD-BP512. These are the candidates of all reproduced experiments.
func PaperDescs() []columns.FormatDesc {
	return []columns.FormatDesc{
		columns.UncomprDesc,
		columns.StaticBPDesc(0),
		columns.DynBPDesc,
		columns.DeltaBPDesc,
		columns.ForBPDesc,
	}
}

// AllDescs returns every supported format, including extensions (RLE).
func AllDescs() []columns.FormatDesc {
	return append(PaperDescs(), columns.RLEDesc)
}

// RandomAccessDescs returns the formats supporting random read access
// (paper §4.2: uncompressed and static BP only).
func RandomAccessDescs() []columns.FormatDesc {
	return []columns.FormatDesc{columns.UncomprDesc, columns.StaticBPDesc(0)}
}
