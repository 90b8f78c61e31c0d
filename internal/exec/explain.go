package exec

import (
	"math"
	"strings"

	"repro/internal/array"
	"repro/internal/plan"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// planCatalog adapts the engine catalog to the planner's schema view.
type planCatalog struct{ e *Engine }

func (pc planCatalog) ArrayInfo(name string) (dims, attrs []string, ok bool) {
	a, found := pc.e.cat().Array(name)
	if !found {
		return nil, nil, false
	}
	for _, d := range a.Schema.Dims {
		dims = append(dims, d.Name)
	}
	for _, at := range a.Schema.Attrs {
		attrs = append(attrs, at.Name)
	}
	return dims, attrs, true
}

func (pc planCatalog) IsTable(name string) bool {
	_, ok := pc.e.cat().Table(name)
	return ok
}

// ArrayStats implements plan.StatsCatalog: it folds the storage
// layer's zone maps (plus dimension bounding boxes and table row
// counts) into the column summaries the cost model consumes.
func (pc planCatalog) ArrayStats(name string) (plan.Stats, bool) {
	snap := pc.e.cat()
	if a, ok := snap.Array(name); ok {
		st := plan.Stats{Rows: int64(a.Store.Len()), Cols: map[string]plan.ColStats{}}
		if lo, hi, err := a.BoundingBox(); err == nil {
			for i, d := range a.Schema.Dims {
				st.Cols[strings.ToLower(d.Name)] = plan.ColStats{
					Min: float64(lo[i]), Max: float64(hi[i]), HasRange: true,
				}
			}
		}
		if sp, isSP := a.Store.(array.StatsProvider); isSP && st.Rows > 0 {
			// Fold every chunk's zone map into whole-array summaries.
			chunks := sp.ChunkStats(1)
			for ai, at := range a.Schema.Attrs {
				var nulls int64
				minV, maxV := math.Inf(1), math.Inf(-1)
				have := false
				for _, cs := range chunks {
					if ai >= len(cs.Attrs) {
						continue
					}
					as := cs.Attrs[ai]
					nulls += as.Nulls
					if !as.Min.Null && as.Min.Typ.Numeric() {
						have = true
						minV = math.Min(minV, as.Min.AsFloat())
						maxV = math.Max(maxV, as.Max.AsFloat())
					}
				}
				col := plan.ColStats{NullFrac: float64(nulls) / float64(st.Rows)}
				if have {
					col.Min, col.Max, col.HasRange = minV, maxV, true
				}
				st.Cols[strings.ToLower(at.Name)] = col
			}
		}
		return st, true
	}
	if t, ok := snap.Table(name); ok {
		st := plan.Stats{Cols: map[string]plan.ColStats{}}
		if len(t.Vecs) > 0 {
			st.Rows = int64(t.Vecs[0].Len())
		}
		return st, true
	}
	return plan.Stats{}, false
}

// planSelect compiles and optimizes the logical plan for a SELECT.
func (e *Engine) planSelect(sel *ast.Select) *plan.Plan {
	return plan.PlanSelect(sel, planCatalog{e})
}

// ExplainSelect compiles sel through the planner (plan → optimize)
// without executing it and renders the operator tree plus the
// execution-mode line as a one-column dataset. The public API calls
// this directly, so EXPLAIN never re-enters the SQL string layer.
func (e *Engine) ExplainSelect(sel *ast.Select) *Dataset {
	pl := e.planSelect(sel)
	costs := plan.EstimateCosts(pl, planCatalog{e})
	vec := e.vecAnnotator(sel, pl)
	annot := func(n plan.Node) string {
		s := ""
		if nc, ok := costs[n]; ok {
			_, isJoin := n.(*plan.Join)
			s = plan.CostAnnotation(nc, isJoin)
		}
		if vec != nil {
			s += vec(n)
		}
		return s
	}
	rendered := pl.RenderAnnotated(annot)
	out := planLinesDataset(rendered)
	out.Append([]value.Value{value.NewString(e.executionModeLine(sel, pl))})
	return out
}

// planLinesDataset packs a rendered plan tree into the one-column
// dataset EXPLAIN statements return.
func planLinesDataset(rendered string) *Dataset {
	out := NewDataset([]Col{{Name: "plan", Typ: value.String}})
	for _, line := range strings.Split(strings.TrimRight(rendered, "\n"), "\n") {
		out.Append([]value.Value{value.NewString(line)})
	}
	return out
}

// executionModeLine states whether the morsel-driven parallel path
// applies to sel, and why not otherwise.
func (e *Engine) executionModeLine(sel *ast.Select, pl *plan.Plan) string {
	mode := "execution: serial interpreter"
	switch {
	case !pl.Parallel:
		mode += " (" + pl.Reason + ")"
	case !parSafeSelect(sel):
		mode += " (expression needs engine state)"
	default:
		mode = "execution: parallelizable (morsel-driven)"
	}
	return mode
}

// vecAnnotator builds the per-operator EXPLAIN annotation marking
// which operators' expressions compile into bulk kernels. It applies
// to single-array pipelines (the shapes the vectorized paths run);
// nil disables annotation.
func (e *Engine) vecAnnotator(sel *ast.Select, pl *plan.Plan) func(plan.Node) string {
	if !e.vectorized {
		return nil
	}
	// Annotation needs a unique scanned array to type the columns.
	var scan *plan.Scan
	scans := 0
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			scans++
			if !s.Table {
				scan = s
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(pl.Root)
	if scans != 1 || scan == nil {
		return nil
	}
	arr, ok := e.cat().Array(scan.Name)
	if !ok {
		return nil
	}
	qual := scan.Qual
	if qual == "" {
		qual = scan.Name
	}
	// The pruned projection comes from the same memoized decision the
	// executor binds kernels against, so the annotation cannot diverge
	// from what actually runs.
	attrs := e.selectDecision(sel).scanAttrs(arr, scan.Name)
	cols := scanColsPruned(arr, qual, attrs)
	const tag = " [vectorized]"
	return func(n plan.Node) string {
		switch t := n.(type) {
		case *plan.Filter:
			if compileVec(t.Cond, cols, false) != nil {
				return tag
			}
		case *plan.Project:
			items := expandStars(t.ItemList, cols)
			if len(items) == 0 {
				return ""
			}
			for _, it := range items {
				if compileVec(it.Expr, cols, false) == nil {
					return ""
				}
			}
			return tag
		case *plan.Aggregate:
			for _, k := range t.KeyExprs {
				if compileVec(k, cols, false) == nil {
					return ""
				}
			}
			for _, c := range t.AggCalls {
				if c.Star {
					continue
				}
				if len(c.Args) != 1 || compileVec(c.Args[0], cols, false) == nil {
					return ""
				}
			}
			return tag
		}
		return ""
	}
}
