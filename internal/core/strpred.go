package core

import (
	"sort"

	"morphstore/internal/dict"
)

// This file implements the prepare-time half of string predicates: an
// OpSelectStr node's strings are resolved against a dictionary snapshot into
// the cheapest equivalent integer predicate, which the existing select
// kernels then execute over the compressed ID column — a single-ID equality
// for `=` (and degenerate IN/prefix), a contiguous ID range for an IN or
// prefix set whose IDs happen to be contiguous, and a sorted membership set
// otherwise. Strings not in the dictionary simply drop out: no row can carry
// their ID.

// strPredMode is the integer shape a translated string predicate executes
// as.
type strPredMode uint8

const (
	// strPredEq is a single-ID equality select.
	strPredEq strPredMode = iota
	// strPredRange is a contiguous inclusive ID range select.
	strPredRange
	// strPredSet is a sorted-set membership select; an empty set (no
	// predicate string is in the dictionary) matches nothing.
	strPredSet
)

// strPred is one translated predicate, valid for the snapshot it was
// translated against and for any snapshot of the same dictionary with the
// same length (IDs never change; only appends make a snapshot differ).
type strPred struct {
	mode   strPredMode
	id     uint64   // strPredEq
	lo, hi uint64   // strPredRange, inclusive
	set    []uint64 // strPredSet, strictly ascending
}

// translateStrPred resolves a string predicate to ID space against one
// dictionary snapshot.
func translateStrPred(s *dict.Snap, kind StrPredKind, val string, vals []string) strPred {
	switch kind {
	case StrEq:
		if id, ok := s.ID(val); ok {
			return strPred{mode: strPredEq, id: id}
		}
		return strPred{mode: strPredSet}
	case StrPrefix:
		return collapseIDSet(s.PrefixIDs(val))
	default: // StrIn
		ids := make([]uint64, 0, len(vals))
		for _, v := range vals {
			if id, ok := s.ID(v); ok {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		// Dedup: the same string may be listed twice.
		k := 0
		for i, id := range ids {
			if i == 0 || id != ids[k-1] {
				ids[k] = id
				k++
			}
		}
		return collapseIDSet(ids[:k])
	}
}

// collapseIDSet picks the cheapest kernel for a sorted unique ID set: a
// single equality, a contiguous range, or the general membership set.
func collapseIDSet(ids []uint64) strPred {
	switch {
	case len(ids) == 1:
		return strPred{mode: strPredEq, id: ids[0]}
	case len(ids) > 1 && ids[len(ids)-1]-ids[0] == uint64(len(ids)-1):
		return strPred{mode: strPredRange, lo: ids[0], hi: ids[len(ids)-1]}
	default:
		return strPred{mode: strPredSet, set: ids}
	}
}
