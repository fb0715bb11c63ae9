// Package ql implements the QB2OLAP Querying module: the high-level
// OLAP language QL, its well-formedness analysis against a QB4OLAP
// schema, the Query Simplification phase, the Query Translation phase
// that produces two semantically equivalent SPARQL queries (the direct
// translation and an alternative using optimization heuristics), and
// the SPARQL Execution phase returning a result cube. Which of the two
// translations runs is, by default, a cost-based decision: Execute
// with the Auto variant (or Choose directly) asks the client to
// estimate both — endpoint.CostEstimator, backed by the engine's
// query planner — and runs the cheaper, falling back to the direct
// form when no estimator is available.
//
// QL follows the cube algebra of Ciferri et al.: a program is a
// sequence of assignments
//
//	$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
//	$C2 := ROLLUP ($C1, schema:citizenshipDim, schema:continent);
//	$C3 := DICE ($C2, (schema:citizenshipDim|schema:continent|schema:continentName = "Africa"));
//
// with the shape (ROLLUP | SLICE | DRILLDOWN)* (DICE)*.
//
// Concurrency contract: the package itself holds no mutable state —
// Parse, Prepare, Translate, and Execute are pure functions over their
// inputs, and a *Prepared program may be executed by many goroutines
// at once. Execute is as concurrent-safe as the endpoint.SPARQLClient
// it is given (Local, Remote, and core.Tool clients all qualify).
package ql

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// OpKind is the QL operation.
type OpKind int

// QL operations.
const (
	OpRollup OpKind = iota
	OpDrilldown
	OpSlice
	OpDice
)

func (k OpKind) String() string {
	switch k {
	case OpRollup:
		return "ROLLUP"
	case OpDrilldown:
		return "DRILLDOWN"
	case OpSlice:
		return "SLICE"
	default:
		return "DICE"
	}
}

// CmpOp is a comparison operator in a DICE condition.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpGt
	CmpLe
	CmpGe
)

func (o CmpOp) String() string {
	switch o {
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpGt:
		return ">"
	case CmpLe:
		return "<="
	case CmpGe:
		return ">="
	default:
		return "="
	}
}

// Condition is a DICE condition tree.
type Condition interface{ isCondition() }

// AttrCondition compares a level attribute with a constant:
// dimension|level|attribute op value.
type AttrCondition struct {
	Dimension rdf.Term
	Level     rdf.Term
	Attribute rdf.Term
	Op        CmpOp
	Value     rdf.Term
}

func (AttrCondition) isCondition() {}

// MemberCondition compares the member of a level with a constant IRI:
// dimension|level op <member>. It needs no declared attribute.
type MemberCondition struct {
	Dimension rdf.Term
	Level     rdf.Term
	Op        CmpOp // CmpEq or CmpNe
	Member    rdf.Term
}

func (MemberCondition) isCondition() {}

// MeasureCondition compares an aggregated measure with a constant:
// measure op value. It filters cube cells, so it translates to HAVING.
type MeasureCondition struct {
	Measure rdf.Term
	Op      CmpOp
	Value   rdf.Term
}

func (MeasureCondition) isCondition() {}

// BoolCondition combines conditions with AND/OR.
type BoolCondition struct {
	And  bool // true = AND, false = OR
	L, R Condition
}

func (BoolCondition) isCondition() {}

// NotCondition negates a condition.
type NotCondition struct{ X Condition }

func (NotCondition) isCondition() {}

// Statement is one QL assignment.
type Statement struct {
	// Target is the assigned cube variable (e.g. "$C1").
	Target string
	// Op is the operation.
	Op OpKind
	// Input is the source cube variable, or empty when the first
	// argument is the dataset itself.
	Input string
	// Dataset is the base cube IRI when this statement starts from the
	// stored data set.
	Dataset rdf.Term
	// Dimension is the operated dimension (ROLLUP/DRILLDOWN/SLICE).
	Dimension rdf.Term
	// Level is the target level (ROLLUP/DRILLDOWN).
	Level rdf.Term
	// Condition is the DICE condition.
	Condition Condition
}

// Program is a parsed QL program.
type Program struct {
	Prefixes   *rdf.PrefixMap
	Statements []Statement
}

// Result returns the variable holding the final cube.
func (p *Program) Result() string {
	if len(p.Statements) == 0 {
		return ""
	}
	return p.Statements[len(p.Statements)-1].Target
}

// String renders the program back to QL syntax.
func (p *Program) String() string {
	var b strings.Builder
	b.WriteString("QUERY\n")
	for _, s := range p.Statements {
		b.WriteString(s.String())
		b.WriteString(";\n")
	}
	return b.String()
}

// String renders one statement.
func (s Statement) String() string {
	src := s.Input
	if src == "" {
		src = "<" + s.Dataset.Value + ">"
	}
	switch s.Op {
	case OpSlice:
		return fmt.Sprintf("%s := SLICE (%s, <%s>)", s.Target, src, s.Dimension.Value)
	case OpRollup, OpDrilldown:
		return fmt.Sprintf("%s := %s (%s, <%s>, <%s>)", s.Target, s.Op, src, s.Dimension.Value, s.Level.Value)
	default:
		return fmt.Sprintf("%s := DICE (%s, %s)", s.Target, src, formatCondition(s.Condition))
	}
}

// formatValue renders a condition constant in QL syntax: numbers as
// bare numerals, IRIs in angle brackets, strings quoted.
func formatValue(v rdf.Term) string {
	if v.IsIRI() {
		return "<" + v.Value + ">"
	}
	switch v.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal:
		return v.Value
	}
	return rdf.NewLiteral(v.Value).String()
}

func formatCondition(c Condition) string {
	switch x := c.(type) {
	case AttrCondition:
		return fmt.Sprintf("(<%s>|<%s>|<%s> %s %s)", x.Dimension.Value, x.Level.Value, x.Attribute.Value, x.Op, formatValue(x.Value))
	case MemberCondition:
		return fmt.Sprintf("(<%s>|<%s> %s <%s>)", x.Dimension.Value, x.Level.Value, x.Op, x.Member.Value)
	case MeasureCondition:
		return fmt.Sprintf("(<%s> %s %s)", x.Measure.Value, x.Op, formatValue(x.Value))
	case BoolCondition:
		op := "OR"
		if x.And {
			op = "AND"
		}
		return fmt.Sprintf("(%s %s %s)", formatCondition(x.L), op, formatCondition(x.R))
	case NotCondition:
		return fmt.Sprintf("(NOT %s)", formatCondition(x.X))
	default:
		return "?"
	}
}
