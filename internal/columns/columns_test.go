package columns

import (
	"strings"
	"testing"
	"unsafe"

	"morphstore/internal/stats"
)

// TestColumnSize pins the size of the Column struct: every operator output
// allocates one, so the profile slot must not push it past the 64-byte
// allocation size class into the next.
func TestColumnSize(t *testing.T) {
	if s := unsafe.Sizeof(Column{}); s > 64 {
		t.Fatalf("Column is %d B, want at most 64", s)
	}
}

// TestSetProfileFirstWins: a column starts without a profile, the first
// SetProfile stores its argument and a later one returns the stored profile.
func TestSetProfileFirstWins(t *testing.T) {
	c := FromValues([]uint64{1, 2, 3})
	if c.Profile() != nil {
		t.Fatal("a new column carries a profile")
	}
	first, second := stats.Collect([]uint64{1, 2, 3}), stats.Collect([]uint64{1, 2, 3})
	if got := c.SetProfile(first); got != first || c.Profile() != first {
		t.Fatal("the first SetProfile did not store its profile")
	}
	if got := c.SetProfile(second); got != first || c.Profile() != first {
		t.Fatal("a second SetProfile replaced the stored profile")
	}
}

func TestFromValues(t *testing.T) {
	vals := []uint64{1, 2, 3}
	c := FromValues(vals)
	if c.N() != 3 || c.MainElems() != 3 {
		t.Fatalf("extents: %v", c)
	}
	if got, ok := c.Values(); !ok || len(got) != 3 {
		t.Fatalf("Values = %v, %v", got, ok)
	}
	if c.PhysicalBytes() != 3*8+MetadataBytes {
		t.Errorf("PhysicalBytes = %d", c.PhysicalBytes())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(UncomprDesc, 4, 4, 4, make([]uint64, 3)); err == nil {
		t.Error("short buffer must fail")
	}
	if _, err := New(UncomprDesc, 4, 5, 4, make([]uint64, 3)); err == nil {
		t.Error("mainElems > n must fail")
	}
	if _, err := New(UncomprDesc, -1, 0, 0, nil); err == nil {
		t.Error("negative n must fail")
	}
	if _, err := New(UncomprDesc, 100, 100, 10, make([]uint64, 10)); err == nil {
		t.Error("uncompressed main part with fewer words than elements must fail")
	}
	c, err := New(DynBPDesc, 600, 512, 10, make([]uint64, 98))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Remainder()) != 88 || len(c.MainWords()) != 10 {
		t.Errorf("split: main %d rem %d", len(c.MainWords()), len(c.Remainder()))
	}
}

func TestValuesOnCompressed(t *testing.T) {
	c, err := New(DynBPDesc, 512, 512, 8, make([]uint64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Values(); ok {
		t.Error("Values must refuse on compressed column")
	}
}

func TestCompressionRate(t *testing.T) {
	c, err := New(StaticBPDesc(8), 64, 64, 8, make([]uint64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r := c.CompressionRate(); r >= 1 {
		t.Errorf("rate = %f, want < 1", r)
	}
	empty := FromValues(nil)
	if r := empty.CompressionRate(); r != 1 {
		t.Errorf("empty rate = %f, want 1", r)
	}
}

func TestDescString(t *testing.T) {
	for _, d := range []FormatDesc{UncomprDesc, StaticBPDesc(13), DynBPDesc, DeltaBPDesc, ForBPDesc, RLEDesc} {
		if d.String() == "" {
			t.Errorf("empty string for %v", d.Kind)
		}
	}
	if !strings.Contains(StaticBPDesc(13).String(), "13") {
		t.Error("static BP string should carry the width")
	}
	if UncomprDesc.IsCompressed() {
		t.Error("uncompressed must not report compressed")
	}
	if !DynBPDesc.IsCompressed() {
		t.Error("dyn BP must report compressed")
	}
}

// TestValidateBadKind: New refuses a format kind it does not know.
func TestValidateBadKind(t *testing.T) {
	if _, err := New(FormatDesc{Kind: Kind(99)}, 1, 1, 1, []uint64{1}); err == nil {
		t.Error("unknown kind must fail validation")
	}
}

func TestColumnString(t *testing.T) {
	c := FromValues([]uint64{1, 2})
	if s := c.String(); !strings.Contains(s, "n=2") {
		t.Errorf("String = %q", s)
	}
}
