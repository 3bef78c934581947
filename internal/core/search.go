package core

import (
	"context"
	"fmt"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// Assignment is a complete format combination for one plan: formats for the
// encoded base columns and for every intermediate.
type Assignment struct {
	Base  map[string]columns.FormatDesc
	Inter map[string]columns.FormatDesc
}

// NewAssignment returns an empty (all-uncompressed) assignment.
func NewAssignment() *Assignment {
	return &Assignment{
		Base:  make(map[string]columns.FormatDesc),
		Inter: make(map[string]columns.FormatDesc),
	}
}

// Candidates returns the admissible formats for the named plan column:
// the paper's five formats, or only the random-access formats for columns
// consumed by project (§4.2, footnote 3).
func Candidates(p *Plan, name string) []columns.FormatDesc {
	if p.RandomAccessed(name) {
		return formats.RandomAccessDescs()
	}
	return formats.PaperDescs()
}

// keptColumns runs the plan once fully uncompressed and returns every base
// column and intermediate by name: the stored base columns themselves and
// the intermediates the run kept. FootprintSearch compresses their values;
// the cost-based pick needs only profiles and takes them from a profiling
// run instead (profiledColumns), which keeps nothing.
func keptColumns(p *Plan, db *DB) (map[string]*columns.Column, error) {
	pr, err := NewEngine(db).Prepare(p, WithKeep(true))
	if err != nil {
		return nil, err
	}
	res, err := pr.Execute(context.Background())
	if err != nil {
		return nil, err
	}
	for _, name := range append(p.BaseColumns(), p.IntermediateNames()...) {
		if res.Inter[name] == nil {
			return nil, fmt.Errorf("core: no materialization for column %q", name)
		}
	}
	return res.Inter, nil
}

// FootprintSearch determines the best and the worst format combination with
// respect to the total memory footprint. Column footprints add up, so each
// column is optimized independently by exhaustively trying every candidate
// format — exactly the search the paper uses for Fig. 7's footprint series.
func FootprintSearch(p *Plan, db *DB) (best, worst *Assignment, err error) {
	cols, err := keptColumns(p, db)
	if err != nil {
		return nil, nil, err
	}
	best, worst = NewAssignment(), NewAssignment()
	nbase := len(p.BaseColumns())
	for i, name := range append(p.BaseColumns(), p.IntermediateNames()...) {
		vals, err := valuesOf(cols[name])
		if err != nil {
			return nil, nil, err
		}
		var bestDesc, worstDesc columns.FormatDesc
		bestSize, worstSize := -1, -1
		for _, d := range Candidates(p, name) {
			c, err := formats.Compress(vals, d)
			if err != nil {
				return nil, nil, err
			}
			size := c.PhysicalBytes()
			if bestSize < 0 || size < bestSize {
				bestSize, bestDesc = size, d
			}
			if worstSize < 0 || size > worstSize {
				worstSize, worstDesc = size, d
			}
		}
		if i < nbase {
			best.Base[name], worst.Base[name] = bestDesc, worstDesc
		} else {
			best.Inter[name], worst.Inter[name] = bestDesc, worstDesc
		}
	}
	return best, worst, nil
}

// measureRuntime prepares the plan on e — the engine over one encoded view
// of the base data — with the given intermediate formats and returns the
// minimum runtime over `repeats` runs (minimum denoises scheduler jitter).
func measureRuntime(e *Engine, p *Plan, inter map[string]columns.FormatDesc, repeats int) (time.Duration, error) {
	pr, err := e.Prepare(p, WithFormats(inter))
	if err != nil {
		return 0, err
	}
	bestT := time.Duration(0)
	for i := 0; i < repeats; i++ {
		res, err := pr.Execute(context.Background())
		if err != nil {
			return 0, err
		}
		if i == 0 || res.Meas.Runtime < bestT {
			bestT = res.Meas.Runtime
		}
	}
	return bestT, nil
}

// RuntimeGreedySearch finds a good (or, with maximize, bad) format
// combination with respect to the query runtime using the paper's greedy
// strategy: starting at the base data, fix one column's format at a time by
// trying every candidate, measuring the full query, and keeping the best.
func RuntimeGreedySearch(p *Plan, db *DB, maximize bool, repeats int) (*Assignment, error) {
	if repeats < 1 {
		repeats = 1
	}
	// One engine per encoded view of the base data. Runtime-driven format
	// choices compare sequential operator times; concurrent execution would
	// fold scheduler contention into them.
	engineOver := func(view *DB) *Engine {
		return NewEngine(view, WithParallelism(1))
	}
	// cur runs on the view holding every base format fixed so far; a base
	// candidate's view differs from it in that one column, so each
	// (column, format) pair is encoded exactly once.
	cur := engineOver(db)
	a := NewAssignment()
	baseSet := make(map[string]bool)
	for _, name := range p.BaseColumns() {
		baseSet[name] = true
	}
	names := append(p.BaseColumns(), p.IntermediateNames()...)
	for _, name := range names {
		var bestDesc columns.FormatDesc
		var bestT time.Duration
		var bestEng *Engine
		for _, d := range Candidates(p, name) {
			eng := cur
			if baseSet[name] {
				a.Base[name] = d
				view, err := cur.db.Encode(map[string]columns.FormatDesc{name: d})
				if err != nil {
					return nil, err
				}
				eng = engineOver(view)
			} else {
				a.Inter[name] = d
			}
			t, err := measureRuntime(eng, p, a.Inter, repeats)
			if err != nil {
				return nil, err
			}
			better := t < bestT
			if maximize {
				better = t > bestT
			}
			if bestEng == nil || better {
				bestT, bestDesc, bestEng = t, d, eng
			}
		}
		if baseSet[name] {
			a.Base[name] = bestDesc
		} else {
			a.Inter[name] = bestDesc
		}
		cur = bestEng
	}
	return a, nil
}
