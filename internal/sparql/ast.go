// Package sparql implements the subset of SPARQL 1.1 (query and update)
// that QB2OLAP generates and executes: SELECT/ASK/CONSTRUCT with basic
// graph patterns, property paths, OPTIONAL, UNION, FILTER (including
// EXISTS), BIND, VALUES, subqueries, GROUP BY with the standard
// aggregates, HAVING, ORDER BY, DISTINCT, LIMIT/OFFSET, and the
// INSERT/DELETE update forms. It evaluates directly against a
// store.Store and substitutes for the Virtuoso endpoint used in the
// paper.
//
// Evaluation: one chunked pull pipeline (stream.go) evaluates every
// query form and every update WHERE clause, with cancellation, memory
// accounting and tracing applied at chunk boundaries. Each query and
// update entry point first runs the cost-based planner (plan.go, on by
// default, WithPlanner(false) to opt out), which reorders BGP joins by
// estimated cardinality from the store's statistics snapshot and pushes
// filters down to where their variables are first bound; the pipeline
// joins in exactly the order it is handed, so with the planner off
// patterns evaluate in the written order.
//
// Concurrency contract: an Engine is safe for concurrent use — any
// number of goroutines may run queries and updates on one Engine.
// Every query evaluation, Plan call and update WHERE clause pins one
// store.Snapshot and reads nothing else (per-query snapshot isolation),
// and every update operation writes through one store.Batch, so it is
// atomic to concurrent queries; callers needing whole update requests
// serialized against each other must arrange it, as endpoint.Server
// does.
// Evaluation runs on the query's goroutine and starts none of its own:
// concurrency is across queries, never within one. Engine configuration
// (SetChunkSize, WithPlanner) is not synchronized and must happen
// before the Engine is shared.
package sparql

import "repro/internal/rdf"

// QueryForm discriminates the top-level query form.
type QueryForm int

// Query forms.
const (
	FormSelect QueryForm = iota
	FormAsk
	FormConstruct
	FormDescribe
)

// Query is a parsed SPARQL query.
type Query struct {
	Form     QueryForm
	Prefixes *rdf.PrefixMap

	// Select projection. Star means SELECT *.
	Star       bool
	Distinct   bool
	Projection []SelectItem

	// Construct template (FormConstruct only).
	Template []TriplePattern

	// Describe targets (FormDescribe only): IRIs and/or variables bound
	// by the (optional) WHERE pattern.
	Describe []PatternTerm

	Where GroupGraphPattern

	GroupBy []Expression
	Having  []Expression
	OrderBy []OrderCondition
	Limit   int // -1 when absent
	Offset  int

	// Planned marks a query rewritten by the cost-based planner
	// (Engine.Plan): its BGP pattern order is authoritative and the
	// evaluator must not reorder it again. Queries that already carry
	// the mark pass through the planning entry hook untouched, so a
	// caller may cache a Plan result and re-run it.
	Planned bool
}

// SelectItem is one projected column: either a plain variable or an
// (expression AS ?var) binding.
type SelectItem struct {
	Var  string
	Expr Expression // nil for plain variables
}

// OrderCondition is one ORDER BY key.
type OrderCondition struct {
	Expr Expression
	Desc bool
}

// GroupGraphPattern is a sequence of graph pattern elements evaluated
// left to right, except that its FILTERs apply to the whole group
// (SPARQL 1.1 §18.2.2): the evaluator runs them after the other
// elements, wherever they are written.
type GroupGraphPattern struct {
	Elements []PatternElement

	// Planned marks a group the cost-based planner rewrote: its FILTERs
	// already sit where they may run — pushed to where their variables
	// are certainly bound, or last — and run there.
	Planned bool
}

// PatternElement is a node of the group graph pattern tree.
type PatternElement interface{ isPatternElement() }

// TriplePattern is a triple with variables allowed in any position.
// Each position is a PatternTerm; the predicate may carry a property
// path instead of a plain term.
type TriplePattern struct {
	S, P, O PatternTerm
	Path    *PropertyPath // non-nil when the predicate is a path
}

func (TriplePattern) isPatternElement() {}

// PatternTerm is a term or variable in a triple pattern.
type PatternTerm struct {
	IsVar bool
	Var   string
	Term  rdf.Term
}

// Var returns a variable pattern term.
func VarTerm(name string) PatternTerm { return PatternTerm{IsVar: true, Var: name} }

// ConstTerm returns a constant pattern term.
func ConstTerm(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

// PathKind enumerates property path operators.
type PathKind int

// Path kinds.
const (
	PathIRI PathKind = iota // atomic IRI
	PathInverse
	PathSequence
	PathAlternative
	PathZeroOrMore
	PathOneOrMore
)

// PropertyPath is a property path expression tree.
type PropertyPath struct {
	Kind PathKind
	IRI  rdf.Term        // PathIRI
	Sub  []*PropertyPath // children for composite kinds
}

// FilterElement is a FILTER constraint.
type FilterElement struct {
	Expr Expression
}

func (FilterElement) isPatternElement() {}

// BindElement is a BIND(expr AS ?v).
type BindElement struct {
	Var  string
	Expr Expression
}

func (BindElement) isPatternElement() {}

// OptionalElement is an OPTIONAL { ... } block.
type OptionalElement struct {
	Pattern GroupGraphPattern
}

func (OptionalElement) isPatternElement() {}

// UnionElement is a { ... } UNION { ... } (n-way).
type UnionElement struct {
	Branches []GroupGraphPattern
}

func (UnionElement) isPatternElement() {}

// MinusElement is a MINUS { ... } block.
type MinusElement struct {
	Pattern GroupGraphPattern
}

func (MinusElement) isPatternElement() {}

// GraphElement is a GRAPH term-or-var { ... } block.
type GraphElement struct {
	Graph   PatternTerm
	Pattern GroupGraphPattern
}

func (GraphElement) isPatternElement() {}

// SubSelectElement is a nested SELECT query.
type SubSelectElement struct {
	Query *Query
}

func (SubSelectElement) isPatternElement() {}

// ValuesElement is an inline VALUES data block.
type ValuesElement struct {
	Vars []string
	Rows [][]rdf.Term // zero Term means UNDEF
}

func (ValuesElement) isPatternElement() {}

// GroupElement is a nested group { ... } evaluated as a unit (needed
// for correct OPTIONAL/FILTER scoping).
type GroupElement struct {
	Pattern GroupGraphPattern
}

func (GroupElement) isPatternElement() {}

// Expression is a SPARQL expression tree node.
type Expression interface{ isExpression() }

// ExprVar references a variable.
type ExprVar struct{ Name string }

func (ExprVar) isExpression() {}

// ExprConst is a constant term.
type ExprConst struct{ Term rdf.Term }

func (ExprConst) isExpression() {}

// Binary operators.
type BinaryOp int

// Binary operator kinds.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// ExprBinary is a binary operation.
type ExprBinary struct {
	Op   BinaryOp
	L, R Expression
}

func (ExprBinary) isExpression() {}

// ExprNot is logical negation.
type ExprNot struct{ X Expression }

func (ExprNot) isExpression() {}

// ExprNeg is arithmetic negation.
type ExprNeg struct{ X Expression }

func (ExprNeg) isExpression() {}

// ExprCall is a built-in function call by upper-cased name.
type ExprCall struct {
	Name string
	Args []Expression
}

func (ExprCall) isExpression() {}

// ExprIn is "expr IN (list)" or its negation.
type ExprIn struct {
	X    Expression
	List []Expression
	Neg  bool
}

func (ExprIn) isExpression() {}

// ExprExists is EXISTS { ... } or NOT EXISTS { ... }.
type ExprExists struct {
	Pattern GroupGraphPattern
	Neg     bool
}

func (ExprExists) isExpression() {}

// ExprAggregate is an aggregate call; only legal in projections,
// HAVING, and ORDER BY of grouped queries.
type ExprAggregate struct {
	Func      string // COUNT, SUM, AVG, MIN, MAX, SAMPLE, GROUP_CONCAT
	Distinct  bool
	Star      bool // COUNT(*)
	Arg       Expression
	Separator string // GROUP_CONCAT
}

func (ExprAggregate) isExpression() {}

// Update is a parsed SPARQL update request: a sequence of operations.
type Update struct {
	Prefixes   *rdf.PrefixMap
	Operations []UpdateOperation
}

// UpdateOperation is one update operation.
type UpdateOperation interface{ isUpdateOperation() }

// InsertDataOp is INSERT DATA { quads }.
type InsertDataOp struct {
	Quads []rdf.Quad
}

func (InsertDataOp) isUpdateOperation() {}

// DeleteDataOp is DELETE DATA { quads }.
type DeleteDataOp struct {
	Quads []rdf.Quad
}

func (DeleteDataOp) isUpdateOperation() {}

// ModifyOp is DELETE {template} INSERT {template} WHERE {pattern}; either
// template may be empty. DELETE WHERE {p} parses as Delete=p, Where=p.
type ModifyOp struct {
	Delete []QuadPattern
	Insert []QuadPattern
	Where  GroupGraphPattern
}

func (ModifyOp) isUpdateOperation() {}

// ClearOp is CLEAR GRAPH <g> / CLEAR DEFAULT / CLEAR ALL.
type ClearOp struct {
	Graph   rdf.Term // zero = default
	All     bool
	Default bool
}

func (ClearOp) isUpdateOperation() {}

// QuadPattern is a triple pattern plus optional graph selector, used in
// update templates.
type QuadPattern struct {
	TriplePattern
	Graph PatternTerm // zero-value PatternTerm means default graph
}
