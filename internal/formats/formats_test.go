package formats

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"morphstore/internal/columns"
)

// testData returns labelled value sequences covering the data shapes the
// formats are sensitive to.
func testData(n int, seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	d := make(map[string][]uint64)

	small := make([]uint64, n)
	for i := range small {
		small[i] = uint64(rng.Intn(64))
	}
	d["small_uniform"] = small

	outliers := make([]uint64, n)
	for i := range outliers {
		if i%1997 == 1000 { // deterministic rare huge outliers, ~0.05%
			outliers[i] = 1<<63 - 1
		} else {
			outliers[i] = uint64(rng.Intn(64))
		}
	}
	d["outliers"] = outliers

	huge := make([]uint64, n)
	for i := range huge {
		huge[i] = 1<<62 + uint64(rng.Intn(64))
	}
	d["huge_narrow"] = huge

	sorted := make([]uint64, n)
	acc := uint64(1) << 47
	for i := range sorted {
		acc += uint64(rng.Intn(220))
		sorted[i] = acc
	}
	d["sorted"] = sorted

	runs := make([]uint64, n)
	v := uint64(5)
	for i := range runs {
		if rng.Float64() < 0.02 {
			v = uint64(rng.Intn(100))
		}
		runs[i] = v
	}
	d["runs"] = runs

	zero := make([]uint64, n)
	d["zeros"] = zero

	full := make([]uint64, n)
	for i := range full {
		full[i] = rng.Uint64()
	}
	d["full_width"] = full

	desc := make([]uint64, n)
	for i := range desc {
		desc[i] = uint64(n-i) * 1000
	}
	d["descending"] = desc

	return d
}

func allDescsWithParams() []columns.FormatDesc {
	return append(AllDescs(), columns.StaticBPDesc(64))
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 511, 512, 513, 1024, 2048, 5000} {
		for name, vals := range testData(n, int64(n)+1) {
			for _, desc := range AllDescs() {
				col, err := Compress(vals, desc)
				if err != nil {
					t.Fatalf("n=%d %s %v: compress: %v", n, name, desc, err)
				}
				if col.N() != n {
					t.Fatalf("n=%d %s %v: col.N=%d", n, name, desc, col.N())
				}
				got, err := Decompress(col)
				if err != nil {
					t.Fatalf("n=%d %s %v: decompress: %v", n, name, desc, err)
				}
				for i := range vals {
					if got[i] != vals[i] {
						t.Fatalf("n=%d %s %v: elem %d = %d, want %d", n, name, desc, i, got[i], vals[i])
					}
				}
			}
		}
	}
}

func TestReaderMatchesDecompress(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 1000, 4096, 10000} {
		for name, vals := range testData(n, int64(n)+2) {
			for _, desc := range AllDescs() {
				col, err := Compress(vals, desc)
				if err != nil {
					t.Fatalf("%s %v: %v", name, desc, err)
				}
				r, err := NewReader(col)
				if err != nil {
					t.Fatalf("%s %v: %v", name, desc, err)
				}
				buf := make([]uint64, BufferLen)
				var got []uint64
				for {
					k, err := r.Read(buf)
					if err != nil {
						t.Fatalf("%s %v: read: %v", name, desc, err)
					}
					if k == 0 {
						break
					}
					got = append(got, buf[:k]...)
				}
				if len(got) != n {
					t.Fatalf("%s %v: reader produced %d elems, want %d", name, desc, len(got), n)
				}
				for i := range vals {
					if got[i] != vals[i] {
						t.Fatalf("%s %v: elem %d = %d, want %d", name, desc, i, got[i], vals[i])
					}
				}
			}
		}
	}
}

func TestWriterMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{0, 1, 512, 777, 4096, 9999} {
		for name, vals := range testData(n, int64(n)+3) {
			for _, desc := range AllDescs() {
				w, err := NewWriter(desc, n)
				if err != nil {
					t.Fatalf("%s %v: %v", name, desc, err)
				}
				// Feed in randomly sized chunks to exercise buffering.
				i := 0
				for i < n {
					c := 1 + rng.Intn(700)
					if i+c > n {
						c = n - i
					}
					if err := w.Write(vals[i : i+c]); err != nil {
						t.Fatalf("%s %v: write: %v", name, desc, err)
					}
					i += c
				}
				col, err := w.Close()
				if err != nil {
					t.Fatalf("%s %v: close: %v", name, desc, err)
				}
				got, err := Decompress(col)
				if err != nil {
					t.Fatalf("%s %v: decompress: %v", name, desc, err)
				}
				for j := range vals {
					if got[j] != vals[j] {
						t.Fatalf("%s %v: elem %d = %d, want %d", name, desc, j, got[j], vals[j])
					}
				}
				// Writer output must match whole-column compression size.
				ref, err := Compress(vals, desc)
				if err != nil {
					t.Fatal(err)
				}
				if col.PhysicalBytes() != ref.PhysicalBytes() {
					t.Errorf("%s %v: writer size %d != compress size %d",
						name, desc, col.PhysicalBytes(), ref.PhysicalBytes())
				}
			}
		}
	}
}

func TestDoubleCloseFails(t *testing.T) {
	for _, desc := range AllDescs() {
		w, err := NewWriter(desc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write([]uint64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatalf("%v: first close: %v", desc, err)
		}
		if _, err := w.Close(); err == nil {
			t.Errorf("%v: second close should fail", desc)
		}
	}
}

func TestRemainderSplit(t *testing.T) {
	vals := make([]uint64, 1200) // 2 full blocks + 176 remainder
	for i := range vals {
		vals[i] = uint64(i % 50)
	}
	for _, desc := range []columns.FormatDesc{columns.DynBPDesc, columns.DeltaBPDesc, columns.ForBPDesc} {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		if col.MainElems() != 1024 {
			t.Errorf("%v: mainElems = %d, want 1024", desc, col.MainElems())
		}
		if got := len(col.Remainder()); got != 176 {
			t.Errorf("%v: remainder = %d, want 176", desc, got)
		}
		for i, v := range col.Remainder() {
			if v != vals[1024+i] {
				t.Errorf("%v: remainder elem %d = %d, want %d", desc, i, v, vals[1024+i])
			}
		}
	}
	// Formats that can represent any n must not produce a remainder.
	for _, desc := range []columns.FormatDesc{columns.UncomprDesc, columns.StaticBPDesc(0), columns.RLEDesc} {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		if col.MainElems() != len(vals) {
			t.Errorf("%v: mainElems = %d, want %d", desc, col.MainElems(), len(vals))
		}
	}
}

func TestCompressionEffectiveness(t *testing.T) {
	n := 8192
	data := testData(n, 77)

	// Small uniform values: static BP must compress to ~6/64 ≈ 10%.
	col, _ := Compress(data["small_uniform"], columns.StaticBPDesc(0))
	if r := col.CompressionRate(); r > 0.12 {
		t.Errorf("static BP on small uniform: rate %.3f, want <= 0.12", r)
	}

	// Outliers kill static BP but not DynBP.
	colS, _ := Compress(data["outliers"], columns.StaticBPDesc(0))
	colD, _ := Compress(data["outliers"], columns.DynBPDesc)
	if colD.PhysicalBytes() >= colS.PhysicalBytes() {
		t.Errorf("DynBP (%d B) should beat static BP (%d B) on outlier data",
			colD.PhysicalBytes(), colS.PhysicalBytes())
	}

	// Huge narrow range: FOR+BP must beat DynBP.
	colF, _ := Compress(data["huge_narrow"], columns.ForBPDesc)
	colD2, _ := Compress(data["huge_narrow"], columns.DynBPDesc)
	if colF.PhysicalBytes() >= colD2.PhysicalBytes() {
		t.Errorf("FOR+BP (%d B) should beat DynBP (%d B) on huge narrow data",
			colF.PhysicalBytes(), colD2.PhysicalBytes())
	}

	// Sorted: DELTA+BP must beat FOR+BP and static BP.
	colDe, _ := Compress(data["sorted"], columns.DeltaBPDesc)
	colF2, _ := Compress(data["sorted"], columns.ForBPDesc)
	if colDe.PhysicalBytes() >= colF2.PhysicalBytes() {
		t.Errorf("DELTA+BP (%d B) should beat FOR+BP (%d B) on sorted data",
			colDe.PhysicalBytes(), colF2.PhysicalBytes())
	}

	// Long runs: RLE must dominate everything.
	colR, _ := Compress(data["runs"], columns.RLEDesc)
	for _, desc := range PaperDescs() {
		other, _ := Compress(data["runs"], desc)
		if colR.PhysicalBytes() >= other.PhysicalBytes() {
			t.Errorf("RLE (%d B) should beat %v (%d B) on run data",
				colR.PhysicalBytes(), desc, other.PhysicalBytes())
		}
	}
}

func TestStaticBPPresetWidthRejectsWideValues(t *testing.T) {
	if _, err := Compress([]uint64{1, 2, 1 << 40}, columns.StaticBPDesc(8)); err == nil {
		t.Error("compress should reject values wider than preset width")
	}
	w, _ := NewWriter(columns.StaticBPDesc(8), 0)
	if err := w.Write([]uint64{300}); err == nil {
		t.Error("writer should reject values wider than preset width")
	}
}

func TestRandomAccess(t *testing.T) {
	vals := make([]uint64, 3000)
	rng := rand.New(rand.NewSource(21))
	for i := range vals {
		vals[i] = uint64(rng.Intn(100000))
	}
	for _, desc := range RandomAccessDescs() {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := RandomAccess(col)
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		idx := []uint64{0, 17, 2999, 512, 7}
		for trial := 0; trial < 200; trial++ {
			idx = append(idx, uint64(rng.Intn(len(vals))))
		}
		checkGather(t, desc.String(), ra, vals, idx)
	}
	// Other formats must refuse.
	for _, desc := range []columns.FormatDesc{columns.DynBPDesc, columns.DeltaBPDesc, columns.ForBPDesc, columns.RLEDesc} {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RandomAccess(col); !errors.Is(err, ErrNoRandomAccess) {
			t.Errorf("%v: want ErrNoRandomAccess, got %v", desc, err)
		}
	}
}

func TestSmallBufferError(t *testing.T) {
	vals := make([]uint64, 2048)
	for _, desc := range []columns.FormatDesc{columns.DynBPDesc, columns.DeltaBPDesc, columns.ForBPDesc} {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := NewReader(col)
		buf := make([]uint64, 100)
		if _, err := r.Read(buf); !errors.Is(err, ErrSmallBuffer) {
			t.Errorf("%v: want ErrSmallBuffer, got %v", desc, err)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = uint64(i)
	}
	for _, desc := range []columns.FormatDesc{columns.DynBPDesc, columns.DeltaBPDesc, columns.ForBPDesc} {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		// Smash the first block header's bit width.
		col.Words()[headerBitsOffset(desc)] = 9999
		if _, err := Decompress(col); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: want ErrCorrupt, got %v", desc, err)
		}
		r, _ := NewReader(col)
		buf := make([]uint64, BufferLen)
		if _, err := r.Read(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v reader: want ErrCorrupt, got %v", desc, err)
		}
	}
	// Static BP whose packed words end long before its elements do.
	trunc := truncatedStaticBP(t)
	if _, err := Decompress(trunc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated static BP: want ErrCorrupt, got %v", err)
	}
	if _, _, err := staticBPWords(trunc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated static BP words: want ErrCorrupt, got %v", err)
	}
	if _, err := RandomAccess(trunc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated static BP random access: want ErrCorrupt, got %v", err)
	}
	// RLE with a zero-length run.
	col, err := Compress(vals[:4], columns.RLEDesc)
	if err != nil {
		t.Fatal(err)
	}
	col.Words()[1] = 0
	if _, err := Decompress(col); !errors.Is(err, ErrCorrupt) {
		t.Errorf("rle: want ErrCorrupt, got %v", err)
	}
}

// truncatedStaticBP is a static BP column claiming 100000 16-bit elements on
// ten packed words.
func truncatedStaticBP(t *testing.T) *columns.Column {
	t.Helper()
	col, err := columns.New(columns.StaticBPDesc(16), 100000, 100000, 10, make([]uint64, 10))
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func headerBitsOffset(desc columns.FormatDesc) int {
	if desc.Kind == columns.DynBP {
		return 0
	}
	return 1 // DeltaBP and ForBP: [base/ref][bits]
}

func TestUncompressedView(t *testing.T) {
	vals := []uint64{1, 2, 3, 4}
	col, _ := Compress(vals, columns.UncomprDesc)
	r, _ := NewReader(col)
	vv, ok := r.(ValueViewer)
	if !ok {
		t.Fatal("uncompressed reader must implement ValueViewer")
	}
	view, ok := vv.View()
	if !ok || len(view) != 4 {
		t.Fatalf("View = %v, %v", view, ok)
	}
	// After viewing, the reader is exhausted.
	buf := make([]uint64, 8)
	if k, _ := r.Read(buf); k != 0 {
		t.Errorf("reader should be exhausted after View, got %d", k)
	}
}

// Property: every format round-trips arbitrary data, via both the whole
// column path and the reader path.
func TestRoundTripProperty(t *testing.T) {
	for _, desc := range AllDescs() {
		desc := desc
		f := func(vals []uint64) bool {
			col, err := Compress(vals, desc)
			if err != nil {
				return false
			}
			got, err := Decompress(col)
			if err != nil {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%v: %v", desc, err)
		}
	}
}

// Property: writer and whole-column compressor agree byte for byte.
func TestWriterCompressAgreementProperty(t *testing.T) {
	for _, desc := range AllDescs() {
		desc := desc
		f := func(vals []uint64, chunk8 uint8) bool {
			chunk := int(chunk8)%600 + 1
			w, err := NewWriter(desc, len(vals))
			if err != nil {
				return false
			}
			for i := 0; i < len(vals); i += chunk {
				end := i + chunk
				if end > len(vals) {
					end = len(vals)
				}
				if err := w.Write(vals[i:end]); err != nil {
					return false
				}
			}
			got, err := w.Close()
			if err != nil {
				return false
			}
			want, err := Compress(vals, desc)
			if err != nil {
				return false
			}
			if got.N() != want.N() || len(got.Words()) != len(want.Words()) {
				return false
			}
			for i, wd := range want.Words() {
				if got.Words()[i] != wd {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%v: %v", desc, err)
		}
	}
}

func TestGetUnknownKind(t *testing.T) {
	if _, err := codecOf(columns.Kind(200)); err == nil {
		t.Error("unknown kind should fail")
	}
}

// TestAppendTailMatchesCompress: AppendTail of every format equals, byte for
// byte, compressing main and tail in one pass, at every split of every data
// shape and with a tail of another shape (a wider tail widens static BP). A
// corrupt main fails instead of being copied.
func TestAppendTailMatchesCompress(t *testing.T) {
	data := testData(1500, 11)
	same := func(a, b *columns.Column) bool {
		if a.Desc() != b.Desc() || a.N() != b.N() || a.MainElems() != b.MainElems() || len(a.Words()) != len(b.Words()) {
			return false
		}
		for i, w := range a.Words() {
			if b.Words()[i] != w {
				return false
			}
		}
		return true
	}
	for _, desc := range AllDescs() {
		for name, vals := range data {
			for _, tailShape := range []string{name, "full_width", "zeros"} {
				for _, split := range []int{0, 1, 63, 64, 700, 1023, 1024, 1499, 1500} {
					whole := append(append([]uint64(nil), vals[:split]...), data[tailShape][split:]...)
					main, err := Compress(whole[:split], desc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := AppendTail(main, whole[split:])
					if err != nil {
						t.Fatalf("%v %s+%s at %d: %v", desc, name, tailShape, split, err)
					}
					want, err := Compress(whole, desc)
					if err != nil {
						t.Fatal(err)
					}
					if !same(got, want) {
						t.Fatalf("%v %s+%s at %d: appended %v, want %v", desc, name, tailShape, split, got, want)
					}
				}
			}
		}
	}
	sbp, err := Compress(data["small_uniform"], columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	rle, err := Compress(data["runs"], columns.RLEDesc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		desc  columns.FormatDesc
		n     int
		words []uint64
	}{
		{sbp.Desc(), sbp.N(), sbp.Words()[:len(sbp.Words())-1]}, // truncated packed words
		{rle.Desc(), rle.N() + 1, rle.Words()},                  // runs short of the length
	} {
		col, err := columns.New(c.desc, c.n, c.n, len(c.words), c.words)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AppendTail(col, []uint64{1}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: AppendTail on a corrupt main returned %v, want ErrCorrupt", c.desc, err)
		}
	}
	// A word behind a blocked main's last block is never decoded, so it is
	// not copied either: the next block would start on it.
	vals := data["small_uniform"]
	for _, desc := range []columns.FormatDesc{columns.DynBPDesc, columns.DeltaBPDesc, columns.ForBPDesc} {
		main, err := Compress(vals[:2*BlockLen+7], desc)
		if err != nil {
			t.Fatal(err)
		}
		words := append(append(append([]uint64(nil), main.MainWords()...), 3075), main.Remainder()...)
		col, err := columns.New(desc, main.N(), main.MainElems(), len(main.MainWords())+1, words)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendTail(col, vals[main.N():])
		if err != nil {
			t.Fatalf("%v: AppendTail on a main with a word behind its blocks: %v", desc, err)
		}
		want, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got, want) {
			t.Errorf("%v: AppendTail on a main with a word behind its blocks: %v, want %v", desc, got, want)
		}
	}
}
