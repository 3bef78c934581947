// Package ssb implements the Star Schema Benchmark substrate of the
// evaluation (§5.2): a deterministic data generator for the SSB schema with
// order-preserving dictionary encoding of all string attributes, plan
// builders for the 13 SSB queries (Q1.1–Q4.3) in the MonetDB-imitating
// operator-at-a-time style the paper uses, and an independent row-wise
// reference executor for correctness validation.
package ssb

import (
	"fmt"
	"sort"
)

// Dictionary is an order-preserving string dictionary: codes are the ranks
// of the sorted distinct values, so code order equals lexicographic value
// order and range predicates translate directly to code ranges (§3.1).
type Dictionary struct {
	strs []string
	idx  map[string]uint64
}

// NewDictionary builds an order-preserving dictionary over values
// (duplicates are ignored).
func NewDictionary(values []string) *Dictionary {
	uniq := make(map[string]struct{}, len(values))
	for _, v := range values {
		uniq[v] = struct{}{}
	}
	strs := make([]string, 0, len(uniq))
	for v := range uniq {
		strs = append(strs, v)
	}
	sort.Strings(strs)
	idx := make(map[string]uint64, len(strs))
	for i, s := range strs {
		idx[s] = uint64(i)
	}
	return &Dictionary{strs: strs, idx: idx}
}

// MustCode returns the code of s and panics if s is not in the dictionary;
// it is used for the fixed predicate constants of the SSB queries.
func (d *Dictionary) MustCode(s string) uint64 {
	c, ok := d.idx[s]
	if !ok {
		panic(fmt.Sprintf("ssb: %q not in dictionary", s))
	}
	return c
}

// String returns the value of a code.
func (d *Dictionary) String(code uint64) string {
	if int(code) >= len(d.strs) {
		return fmt.Sprintf("code(%d)", code)
	}
	return d.strs[code]
}

// Len returns the number of distinct values.
func (d *Dictionary) Len() int { return len(d.strs) }

// The 25 TPC-H/SSB nations with their region assignment.
var nationsByRegion = map[string][]string{
	"AFRICA":      {"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
	"AMERICA":     {"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"},
	"ASIA":        {"CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"},
	"EUROPE":      {"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"},
	"MIDDLE EAST": {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
}

// cityName forms SSB city names: the nation name padded/truncated to nine
// characters plus a digit 0-9 ("UNITED KI1" is city 1 of UNITED KINGDOM).
func cityName(nation string, k int) string {
	prefix := nation
	for len(prefix) < 9 {
		prefix += " "
	}
	return prefix[:9] + fmt.Sprintf("%d", k)
}

// Dicts bundles the order-preserving dictionaries of all string attributes.
type Dicts struct {
	Region    *Dictionary
	Nation    *Dictionary
	City      *Dictionary
	Mfgr      *Dictionary
	Category  *Dictionary
	Brand     *Dictionary
	YearMonth *Dictionary // "Jan1992" ... "Dec1998" (equality predicates only)
	// nationRegion maps a nation code to its region code.
	nationRegion map[uint64]uint64
}

var monthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun",
	"Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}

// buildDicts constructs all dictionaries; they are schema constants
// independent of the scale factor.
func buildDicts() *Dicts {
	var regions, nations, cities []string
	for r := range nationsByRegion {
		regions = append(regions, r)
	}
	for _, ns := range nationsByRegion {
		for _, n := range ns {
			nations = append(nations, n)
			for k := 0; k < 10; k++ {
				cities = append(cities, cityName(n, k))
			}
		}
	}
	var mfgrs, cats, brands []string
	for m := 1; m <= 5; m++ {
		mfgrs = append(mfgrs, fmt.Sprintf("MFGR#%d", m))
		for c := 1; c <= 5; c++ {
			cats = append(cats, fmt.Sprintf("MFGR#%d%d", m, c))
			for b := 1; b <= 40; b++ {
				brands = append(brands, fmt.Sprintf("MFGR#%d%d%02d", m, c, b))
			}
		}
	}
	var yms []string
	for y := 1992; y <= 1998; y++ {
		for _, m := range monthNames {
			yms = append(yms, fmt.Sprintf("%s%d", m, y))
		}
	}
	d := &Dicts{
		Region:    NewDictionary(regions),
		Nation:    NewDictionary(nations),
		City:      NewDictionary(cities),
		Mfgr:      NewDictionary(mfgrs),
		Category:  NewDictionary(cats),
		Brand:     NewDictionary(brands),
		YearMonth: NewDictionary(yms),
	}
	d.nationRegion = make(map[uint64]uint64, 25)
	for r, ns := range nationsByRegion {
		rc := d.Region.MustCode(r)
		for _, n := range ns {
			d.nationRegion[d.Nation.MustCode(n)] = rc
		}
	}
	return d
}

// CityCode returns the code of city k of the given nation.
func (d *Dicts) CityCode(nation string, k int) uint64 {
	return d.City.MustCode(cityName(nation, k))
}
