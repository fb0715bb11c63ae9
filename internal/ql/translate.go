package ql

import (
	"fmt"
	"strings"

	"repro/internal/qb4olap"
	"repro/internal/rdf"
)

// Translation holds the two semantically equivalent SPARQL queries the
// Query Translation phase produces: the direct translation, which
// applies DICE before aggregating, and the alternative, which applies it
// to the aggregated cells — the paper's heuristic for "typical
// limitations of SPARQL endpoints".
type Translation struct {
	Direct      string
	Alternative string

	// Selection records how an Auto execution chose between the two
	// queries; nil until an Auto Execute/Run resolves (or a caller runs
	// Choose itself). Cached: a second Auto execution of the same
	// Translation reuses the decision.
	Selection *Selection

	// GroupVars are the SPARQL variable names of the member columns,
	// parallel to Analysis.VisibleDims().
	GroupVars []string
	// LabelVars are the label column names, parallel to GroupVars.
	LabelVars []string
	// MeasureVars are the aggregated measure column names, parallel to
	// Analysis.Schema.Measures.
	MeasureVars []string

	Analysis *Analysis
}

// dimPlan is the per-dimension navigation plan: the variable chain from
// the observation's base member up to the grouping member.
type dimPlan struct {
	state    *DimState
	index    int
	baseVar  string
	groupVar string
	labelVar string
	steps    []qb4olap.HierarchyStep
}

// Translate implements the Query Translation phase over an analyzed
// (and usually simplified) program.
func Translate(a *Analysis) (*Translation, error) {
	t := &Translation{Analysis: a}

	var plans []dimPlan
	for i, ds := range a.VisibleDims() {
		p := dimPlan{
			state:   ds,
			index:   i,
			baseVar: fmt.Sprintf("m%d_0", i+1),
		}
		steps, ok := ds.Dimension.PathToLevel(ds.Level)
		if !ok {
			return nil, fmt.Errorf("ql: no roll-up path from %s to %s", ds.Dimension.BaseLevel.Value, ds.Level.Value)
		}
		p.steps = steps
		p.groupVar = fmt.Sprintf("m%d_%d", i+1, len(steps))
		p.labelVar = fmt.Sprintf("l%d", i+1)
		plans = append(plans, p)
		t.GroupVars = append(t.GroupVars, p.groupVar)
		t.LabelVars = append(t.LabelVars, p.labelVar)
	}
	for i := range a.Schema.Measures {
		t.MeasureVars = append(t.MeasureVars, fmt.Sprintf("ag%d", i+1))
	}

	// Shared basic graph pattern: observation spine plus roll-up
	// navigation per visible dimension. ROLLUPs navigate the roll-up
	// relationships between members guided by the hierarchy metadata;
	// each step is a SPARQL graph pattern (a join).
	var bgp strings.Builder
	bgp.WriteString("      ?o qb:dataSet <" + a.Dataset.Value + "> .\n")
	for i, m := range a.Schema.Measures {
		fmt.Fprintf(&bgp, "      ?o <%s> ?v%d .\n", m.Property.Value, i+1)
	}
	for _, p := range plans {
		fmt.Fprintf(&bgp, "      ?o <%s> ?%s .\n", p.state.Dimension.BaseLevel.Value, p.baseVar)
		cur := p.baseVar
		for j, st := range p.steps {
			next := fmt.Sprintf("m%d_%d", p.index+1, j+1)
			fmt.Fprintf(&bgp, "      ?%s <%s> ?%s .\n", cur, st.Rollup.Value, next)
			cur = next
		}
	}

	lookup := make(map[rdf.Term]*dimPlan, len(plans))
	for i := range plans {
		lookup[plans[i].state.Dimension.IRI] = &plans[i]
	}

	var err error
	if t.Direct, err = t.render(bgp.String(), plans, lookup, true); err != nil {
		return nil, err
	}
	t.Alternative, _ = t.render(bgp.String(), plans, lookup, false)
	return t, nil
}

func localOf(t rdf.Term) string {
	v := t.Value
	if i := strings.LastIndexAny(v, "#/"); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	return v
}

// dice renders the program's DICE conditions for one translation:
// filters are FILTER expressions over group members, havings compare
// aggregated measures (HAVING in the direct form, an outer FILTER in the
// alternative); indent is the indentation of the FILTER line, which
// multi-line EXISTS blocks continue from. Fresh attribute variables
// ?x1, ?x2, … are numbered in condition order, the same in both forms.
func (t *Translation) dice(lookup map[rdf.Term]*dimPlan, indent string) (filters, havings []string, err error) {
	fresh := 0
	for _, cond := range t.Analysis.Dices {
		expr, usesMeasure, err := t.renderCondition(cond, lookup, false, indent, &fresh)
		if err != nil {
			return nil, nil, err
		}
		if usesMeasure {
			havings = append(havings, expr)
		} else {
			filters = append(filters, expr)
		}
	}
	return filters, havings, nil
}

// renderCondition renders a condition to a SPARQL boolean expression,
// negated when neg is set. usesMeasure reports whether it references
// aggregated measures (and therefore must go to HAVING / the outer
// filter of the alternative form). A negation is pushed down to the
// atoms (De Morgan), so an attribute atom is always a positive semi-join
// (DESIGN §6): EXISTS { ?g <attr> ?xN . FILTER(cmp) }, with cmp negated
// inside the block. A member matches it when some value of the attribute
// satisfies the comparison, and is counted once however many values it
// has; a member without the attribute fails an atom and its negation
// alike. fresh numbers the atoms' variables.
func (t *Translation) renderCondition(c Condition, lookup map[rdf.Term]*dimPlan, neg bool, indent string, fresh *int) (string, bool, error) {
	not := func(cmp string) string {
		if neg {
			return "!(" + cmp + ")"
		}
		return cmp
	}
	switch x := c.(type) {
	case AttrCondition:
		p, ok := lookup[x.Dimension]
		if !ok {
			return "", false, fmt.Errorf("ql: condition on invisible dimension %s", x.Dimension.Value)
		}
		*fresh++
		v := fmt.Sprintf("?x%d", *fresh)
		lhs := v
		if x.Value.IsLiteral() && (x.Value.Datatype == "" || x.Value.Datatype == rdf.XSDString) {
			// String comparisons go through STR() so language-tagged
			// labels still match plain string constants.
			lhs = "STR(" + v + ")"
		}
		cmp := not(fmt.Sprintf("%s %s %s", lhs, x.Op, renderValue(x.Value)))
		return fmt.Sprintf("EXISTS {\n%s  ?%s <%s> %s .\n%s  FILTER(%s)\n%s}",
			indent, p.groupVar, x.Attribute.Value, v, indent, cmp, indent), false, nil
	case MemberCondition:
		p, ok := lookup[x.Dimension]
		if !ok {
			return "", false, fmt.Errorf("ql: condition on invisible dimension %s", x.Dimension.Value)
		}
		return not(fmt.Sprintf("?%s %s <%s>", p.groupVar, x.Op, x.Member.Value)), false, nil
	case MeasureCondition:
		idx := -1
		for i, m := range t.Analysis.Schema.Measures {
			if m.Property == x.Measure {
				idx = i
			}
		}
		if idx < 0 {
			return "", false, fmt.Errorf("ql: unknown measure %s", x.Measure.Value)
		}
		m := t.Analysis.Schema.Measures[idx]
		agg := fmt.Sprintf("%s(?v%d)", m.Agg.SPARQL(), idx+1)
		return not(fmt.Sprintf("%s %s %s", agg, x.Op, renderValue(x.Value))), true, nil
	case BoolCondition:
		l, lm, err := t.renderCondition(x.L, lookup, neg, indent, fresh)
		if err != nil {
			return "", false, err
		}
		r, rm, err := t.renderCondition(x.R, lookup, neg, indent, fresh)
		if err != nil {
			return "", false, err
		}
		if lm != rm {
			return "", false, fmt.Errorf("ql: cannot mix measure and attribute conditions inside one boolean expression")
		}
		op := "||"
		if x.And != neg {
			op = "&&"
		}
		return fmt.Sprintf("(%s %s %s)", l, op, r), lm, nil
	case NotCondition:
		return t.renderCondition(x.X, lookup, !neg, indent, fresh)
	default:
		return "", false, fmt.Errorf("ql: unknown condition %T", c)
	}
}

func renderValue(v rdf.Term) string {
	if v.IsIRI() {
		return "<" + v.Value + ">"
	}
	return v.String()
}

// render produces one translation. Both aggregate in an inner SELECT
// over the observation pattern and join labels once per group outside
// it, so a member with two labels never multiplies a measure; they
// differ only in where DICE applies. diceFirst (the direct translation)
// filters observations before aggregating, with measure conditions as
// HAVING. Otherwise (the alternative) the dice filters and measure
// filters apply to the aggregated groups outside — the paper's
// alternative query "generated using optimization heuristics thought to
// deal with some of the typical limitations of SPARQL endpoints". A
// program without DICE renders the same text either way.
func (t *Translation) render(bgp string, plans []dimPlan, lookup map[rdf.Term]*dimPlan, diceFirst bool) (string, error) {
	indent := "  "
	if diceFirst {
		indent = "      "
	}
	filters, havings, err := t.dice(lookup, indent)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	// keys writes one GROUP BY or ORDER BY line over the group members.
	keys := func(clause string, extra ...string) {
		if len(plans) == 0 {
			return
		}
		b.WriteString(clause)
		for _, p := range plans {
			fmt.Fprintf(&b, " ?%s", p.groupVar)
		}
		for _, v := range extra {
			b.WriteString(" ?" + v)
		}
		b.WriteByte('\n')
	}
	inner := make([]string, len(t.MeasureVars))
	for i := range inner {
		inner[i] = fmt.Sprintf("iag%d", i+1)
	}

	b.WriteString("PREFIX qb: <http://purl.org/linked-data/cube#>\n")
	b.WriteString("PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n")
	b.WriteString("SELECT")
	for _, p := range plans {
		fmt.Fprintf(&b, " ?%s (SAMPLE(?lbl%d) AS ?%s)", p.groupVar, p.index+1, p.labelVar)
	}
	for i, v := range inner {
		fmt.Fprintf(&b, " (SAMPLE(?%s) AS ?%s)", v, t.MeasureVars[i])
	}
	b.WriteString("\nWHERE {\n  {\n    SELECT")
	for _, p := range plans {
		fmt.Fprintf(&b, " ?%s", p.groupVar)
	}
	for i, m := range t.Analysis.Schema.Measures {
		fmt.Fprintf(&b, " (%s(?v%d) AS ?%s)", m.Agg.SPARQL(), i+1, inner[i])
	}
	b.WriteString("\n    WHERE {\n")
	b.WriteString(bgp)
	if diceFirst {
		for _, f := range filters {
			fmt.Fprintf(&b, "      FILTER(%s)\n", f)
		}
	}
	b.WriteString("    }\n")
	keys("    GROUP BY")
	if diceFirst {
		for _, h := range havings {
			fmt.Fprintf(&b, "    HAVING (%s)\n", h)
		}
	}
	b.WriteString("  }\n")
	for _, p := range plans {
		fmt.Fprintf(&b, "  OPTIONAL { ?%s rdfs:label ?lbl%d }\n", p.groupVar, p.index+1)
	}
	if !diceFirst {
		for _, f := range filters {
			fmt.Fprintf(&b, "  FILTER(%s)\n", f)
		}
		for _, h := range havings {
			// Measure conditions reference the inner aggregate variable
			// in the outer scope.
			for j, m := range t.Analysis.Schema.Measures {
				h = strings.ReplaceAll(h, fmt.Sprintf("%s(?v%d)", m.Agg.SPARQL(), j+1), "?"+inner[j])
			}
			fmt.Fprintf(&b, "  FILTER(%s)\n", h)
		}
	}
	b.WriteString("}\n")
	keys("GROUP BY", inner...)
	keys("ORDER BY")
	return b.String(), nil
}
