package sparql

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Sentinel errors used by expression evaluation. A type error in a
// FILTER silently removes the row, per the SPARQL semantics.
var (
	errTypeError          = errors.New("sparql: expression type error")
	errUnbound            = errors.New("sparql: unbound variable in expression")
	errPathInTemplate     = errors.New("sparql: property path not allowed in template")
	errComplexDeleteWhere = errors.New("sparql: DELETE WHERE pattern must be a basic graph pattern")
)

// numeric is a SPARQL numeric value that tracks whether it is still an
// integer, so integer arithmetic stays exact and result datatypes
// follow the operand types.
type numeric struct {
	isInt bool
	i     int64
	f     float64
}

func (n numeric) asFloat() float64 {
	if n.isInt {
		return float64(n.i)
	}
	return n.f
}

// numericOf extracts a numeric value from a literal term.
func numericOf(t rdf.Term) (numeric, bool) {
	if !t.IsLiteral() {
		return numeric{}, false
	}
	switch t.Datatype {
	case rdf.XSDInteger,
		"http://www.w3.org/2001/XMLSchema#int",
		"http://www.w3.org/2001/XMLSchema#long",
		"http://www.w3.org/2001/XMLSchema#short",
		"http://www.w3.org/2001/XMLSchema#nonNegativeInteger",
		"http://www.w3.org/2001/XMLSchema#positiveInteger":
		i, err := strconv.ParseInt(t.Value, 10, 64)
		if err != nil {
			return numeric{}, false
		}
		return numeric{isInt: true, i: i}, true
	case rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDFloat:
		f, err := strconv.ParseFloat(t.Value, 64)
		if err != nil {
			return numeric{}, false
		}
		return numeric{f: f}, true
	default:
		return numeric{}, false
	}
}

// numericTerm converts a numeric back to a literal term.
func numericTerm(n numeric) rdf.Term {
	if n.isInt {
		return rdf.NewInteger(n.i)
	}
	// Prefer xsd:decimal rendering without exponent when exact.
	return rdf.NewTypedLiteral(strconv.FormatFloat(n.f, 'f', -1, 64), rdf.XSDDecimal)
}

// ebv computes the SPARQL effective boolean value.
func ebv(t rdf.Term) (bool, error) {
	if !t.IsLiteral() {
		return false, errTypeError
	}
	switch t.Datatype {
	case rdf.XSDBoolean:
		return t.Value == "true" || t.Value == "1", nil
	case rdf.XSDString, "", rdf.RDFLangString:
		return t.Value != "", nil
	default:
		if n, ok := numericOf(t); ok {
			if n.isInt {
				return n.i != 0, nil
			}
			return n.f != 0 && !math.IsNaN(n.f), nil
		}
		return t.Value != "", nil
	}
}

// compareTerms compares two terms for the relational operators,
// returning -1/0/+1, or an error when the pair is not comparable.
func compareTerms(a, b rdf.Term) (int, error) {
	na, aok := numericOf(a)
	nb, bok := numericOf(b)
	if aok && bok {
		if na.isInt && nb.isInt {
			switch {
			case na.i < nb.i:
				return -1, nil
			case na.i > nb.i:
				return 1, nil
			default:
				return 0, nil
			}
		}
		fa, fb := na.asFloat(), nb.asFloat()
		switch {
		case fa < fb:
			return -1, nil
		case fa > fb:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.IsLiteral() && b.IsLiteral() {
		sa, sb := a.Datatype, b.Datatype
		stringish := func(dt string) bool {
			return dt == "" || dt == rdf.XSDString || dt == rdf.RDFLangString
		}
		if stringish(sa) && stringish(sb) {
			return strings.Compare(a.Value, b.Value), nil
		}
		if sa == sb {
			// Same non-numeric datatype (dates, gYear, ...): ISO lexical
			// forms order correctly as strings.
			return strings.Compare(a.Value, b.Value), nil
		}
		return 0, errTypeError
	}
	if a.IsIRI() && b.IsIRI() {
		return strings.Compare(a.Value, b.Value), nil
	}
	return 0, errTypeError
}

// equalTerms implements the '=' operator: value equality for numerics
// and plain strings, term equality otherwise.
func equalTerms(a, b rdf.Term) (bool, error) {
	if a == b {
		return true, nil
	}
	na, aok := numericOf(a)
	nb, bok := numericOf(b)
	if aok && bok {
		if na.isInt && nb.isInt {
			return na.i == nb.i, nil
		}
		return na.asFloat() == nb.asFloat(), nil
	}
	if a.IsLiteral() && b.IsLiteral() {
		stringish := func(dt string) bool { return dt == "" || dt == rdf.XSDString }
		if stringish(a.Datatype) && stringish(b.Datatype) && a.Lang == b.Lang {
			return a.Value == b.Value, nil
		}
		if a.Datatype == b.Datatype && a.Lang == b.Lang {
			return a.Value == b.Value, nil
		}
		// Different datatypes, both not numeric: per spec this is an
		// error (the values might still be equal in an unknown type
		// system).
		return false, errTypeError
	}
	return false, nil
}

// arith applies an arithmetic operator with SPARQL numeric promotion.
func arith(op BinaryOp, a, b rdf.Term) (rdf.Term, error) {
	na, aok := numericOf(a)
	nb, bok := numericOf(b)
	if !aok || !bok {
		return rdf.Term{}, errTypeError
	}
	if na.isInt && nb.isInt && op != OpDiv {
		var r int64
		switch op {
		case OpAdd:
			r = na.i + nb.i
		case OpSub:
			r = na.i - nb.i
		case OpMul:
			r = na.i * nb.i
		}
		return rdf.NewInteger(r), nil
	}
	fa, fb := na.asFloat(), nb.asFloat()
	var r float64
	switch op {
	case OpAdd:
		r = fa + fb
	case OpSub:
		r = fa - fb
	case OpMul:
		r = fa * fb
	case OpDiv:
		if fb == 0 {
			return rdf.Term{}, errTypeError
		}
		r = fa / fb
	}
	return numericTerm(numeric{f: r}), nil
}

// evalExpr evaluates an expression against a solution row. Aggregates
// are rejected here; grouped evaluation handles them separately.
func (r *run) evalExpr(e Expression, row solution) (rdf.Term, error) {
	switch x := e.(type) {
	case ExprConst:
		return x.Term, nil
	case ExprVar:
		idx, ok := r.vt.index[x.Name]
		if !ok {
			return rdf.Term{}, errUnbound
		}
		t := row[idx]
		if t.IsZero() {
			return rdf.Term{}, errUnbound
		}
		return t, nil
	case slotRef:
		if row[x].IsZero() {
			return rdf.Term{}, errUnbound
		}
		return row[x], nil
	case ExprBinary:
		return r.evalBinary(x, row)
	case ExprNot:
		v, err := r.evalExpr(x.X, row)
		if err != nil {
			return rdf.Term{}, err
		}
		b, err := ebv(v)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(!b), nil
	case ExprNeg:
		v, err := r.evalExpr(x.X, row)
		if err != nil {
			return rdf.Term{}, err
		}
		n, ok := numericOf(v)
		if !ok {
			return rdf.Term{}, errTypeError
		}
		if n.isInt {
			return rdf.NewInteger(-n.i), nil
		}
		return numericTerm(numeric{f: -n.f}), nil
	case ExprCall:
		return r.evalCall(x, row)
	case ExprIn:
		v, err := r.evalExpr(x.X, row)
		if err != nil {
			return rdf.Term{}, err
		}
		found := false
		for _, le := range x.List {
			lv, err := r.evalExpr(le, row)
			if err != nil {
				continue
			}
			if eq, err := equalTerms(v, lv); err == nil && eq {
				found = true
				break
			}
		}
		if x.Neg {
			found = !found
		}
		return rdf.NewBoolean(found), nil
	case ExprExists:
		rows, err := r.groupRows(x.Pattern, []solution{row}, r.ctx, nil, true)
		if err != nil {
			return rdf.Term{}, err
		}
		ok := len(rows) > 0
		if x.Neg {
			ok = !ok
		}
		return rdf.NewBoolean(ok), nil
	case exprSemiJoin:
		return r.member(x, row)
	case ExprAggregate:
		return rdf.Term{}, fmt.Errorf("sparql: aggregate %s outside grouped projection", x.Func)
	default:
		return rdf.Term{}, fmt.Errorf("sparql: unknown expression %T", e)
	}
}

func (r *run) evalBinary(x ExprBinary, row solution) (rdf.Term, error) {
	switch x.Op {
	case OpOr:
		lv, lerr := r.evalExpr(x.L, row)
		var lb bool
		if lerr == nil {
			if b, err := ebv(lv); err == nil {
				lb = b
			} else {
				lerr = err
			}
		}
		if lerr == nil && lb {
			return rdf.NewBoolean(true), nil
		}
		rv, rerr := r.evalExpr(x.R, row)
		if rerr == nil {
			if rb, err := ebv(rv); err == nil {
				if rb {
					return rdf.NewBoolean(true), nil
				}
				if lerr == nil {
					return rdf.NewBoolean(false), nil
				}
			}
		}
		return rdf.Term{}, errTypeError
	case OpAnd:
		lv, lerr := r.evalExpr(x.L, row)
		lb := false
		lok := false
		if lerr == nil {
			if b, err := ebv(lv); err == nil {
				lb, lok = b, true
			}
		}
		if lok && !lb {
			return rdf.NewBoolean(false), nil
		}
		rv, rerr := r.evalExpr(x.R, row)
		if rerr == nil {
			if rb, err := ebv(rv); err == nil {
				if !rb {
					return rdf.NewBoolean(false), nil
				}
				if lok {
					return rdf.NewBoolean(lb && rb), nil
				}
			}
		}
		return rdf.Term{}, errTypeError
	}

	l, err := r.evalExpr(x.L, row)
	if err != nil {
		return rdf.Term{}, err
	}
	rv, err := r.evalExpr(x.R, row)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case OpEq:
		b, err := equalTerms(l, rv)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(b), nil
	case OpNe:
		b, err := equalTerms(l, rv)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean(!b), nil
	case OpLt, OpGt, OpLe, OpGe:
		c, err := compareTerms(l, rv)
		if err != nil {
			return rdf.Term{}, err
		}
		var b bool
		switch x.Op {
		case OpLt:
			b = c < 0
		case OpGt:
			b = c > 0
		case OpLe:
			b = c <= 0
		case OpGe:
			b = c >= 0
		}
		return rdf.NewBoolean(b), nil
	case OpAdd, OpSub, OpMul, OpDiv:
		return arith(x.Op, l, rv)
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown operator %d", x.Op)
}

func (r *run) evalCall(x ExprCall, row solution) (rdf.Term, error) {
	// BOUND, COALESCE and IF control evaluation of their arguments.
	switch x.Name {
	case "BOUND":
		if len(x.Args) != 1 {
			return rdf.Term{}, errTypeError
		}
		v, ok := x.Args[0].(ExprVar)
		if !ok {
			return rdf.Term{}, errTypeError
		}
		idx, ok := r.vt.index[v.Name]
		bound := ok && !row[idx].IsZero()
		return rdf.NewBoolean(bound), nil
	case "COALESCE":
		for _, a := range x.Args {
			if v, err := r.evalExpr(a, row); err == nil {
				return v, nil
			}
		}
		return rdf.Term{}, errTypeError
	case "IF":
		if len(x.Args) != 3 {
			return rdf.Term{}, errTypeError
		}
		c, err := r.evalExpr(x.Args[0], row)
		if err != nil {
			return rdf.Term{}, err
		}
		b, err := ebv(c)
		if err != nil {
			return rdf.Term{}, err
		}
		if b {
			return r.evalExpr(x.Args[1], row)
		}
		return r.evalExpr(x.Args[2], row)
	}

	args := make([]rdf.Term, len(x.Args))
	for i, a := range x.Args {
		v, err := r.evalExpr(a, row)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	one := func() rdf.Term { return args[0] }

	switch x.Name {
	case "STR":
		return rdf.NewLiteral(one().Value), nil
	case "LANG":
		if !one().IsLiteral() {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewLiteral(one().Lang), nil
	case "DATATYPE":
		t := one()
		if !t.IsLiteral() {
			return rdf.Term{}, errTypeError
		}
		dt := t.Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.NewIRI(dt), nil
	case "IRI", "URI":
		return rdf.NewIRI(one().Value), nil
	case "ISIRI", "ISURI":
		return rdf.NewBoolean(one().IsIRI()), nil
	case "ISLITERAL":
		return rdf.NewBoolean(one().IsLiteral()), nil
	case "ISBLANK":
		return rdf.NewBoolean(one().IsBlank()), nil
	case "ISNUMERIC":
		_, ok := numericOf(one())
		return rdf.NewBoolean(ok), nil
	case "STRLEN":
		return rdf.NewInteger(int64(len([]rune(one().Value)))), nil
	case "UCASE":
		return stringResult(one(), strings.ToUpper(one().Value)), nil
	case "LCASE":
		return stringResult(one(), strings.ToLower(one().Value)), nil
	case "CONTAINS":
		if len(args) != 2 {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewBoolean(strings.Contains(args[0].Value, args[1].Value)), nil
	case "STRSTARTS":
		if len(args) != 2 {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewBoolean(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	case "STRENDS":
		if len(args) != 2 {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewBoolean(strings.HasSuffix(args[0].Value, args[1].Value)), nil
	case "SUBSTR":
		if len(args) < 2 || len(args) > 3 {
			return rdf.Term{}, errTypeError
		}
		src := []rune(args[0].Value)
		start, ok := numericOf(args[1])
		if !ok {
			return rdf.Term{}, errTypeError
		}
		from := int(start.asFloat()) - 1 // SPARQL is 1-based
		if from < 0 {
			from = 0
		}
		if from > len(src) {
			from = len(src)
		}
		to := len(src)
		if len(args) == 3 {
			length, ok := numericOf(args[2])
			if !ok {
				return rdf.Term{}, errTypeError
			}
			to = from + int(length.asFloat())
			if to > len(src) {
				to = len(src)
			}
		}
		return stringResult(args[0], string(src[from:to])), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.Value)
		}
		return rdf.NewLiteral(b.String()), nil
	case "REGEX":
		if len(args) < 2 {
			return rdf.Term{}, errTypeError
		}
		pattern := args[1].Value
		if len(args) == 3 && strings.Contains(args[2].Value, "i") {
			pattern = "(?i)" + pattern
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewBoolean(re.MatchString(args[0].Value)), nil
	case "REPLACE":
		if len(args) < 3 {
			return rdf.Term{}, errTypeError
		}
		re, err := regexp.Compile(args[1].Value)
		if err != nil {
			return rdf.Term{}, errTypeError
		}
		return stringResult(args[0], re.ReplaceAllString(args[0].Value, args[2].Value)), nil
	case "ABS":
		n, ok := numericOf(one())
		if !ok {
			return rdf.Term{}, errTypeError
		}
		if n.isInt {
			if n.i < 0 {
				return rdf.NewInteger(-n.i), nil
			}
			return rdf.NewInteger(n.i), nil
		}
		return numericTerm(numeric{f: math.Abs(n.f)}), nil
	case "CEIL":
		return roundFunc(one(), math.Ceil)
	case "FLOOR":
		return roundFunc(one(), math.Floor)
	case "ROUND":
		return roundFunc(one(), math.Round)
	case "YEAR":
		return datePart(one(), 0, 4)
	case "MONTH":
		return datePart(one(), 5, 7)
	case "DAY":
		return datePart(one(), 8, 10)
	case "STRDT":
		if len(args) != 2 || !args[1].IsIRI() {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewTypedLiteral(args[0].Value, args[1].Value), nil
	case "STRLANG":
		if len(args) != 2 {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewLangLiteral(args[0].Value, args[1].Value), nil
	case "SAMETERM":
		if len(args) != 2 {
			return rdf.Term{}, errTypeError
		}
		return rdf.NewBoolean(args[0] == args[1]), nil
	case "LANGMATCHES":
		if len(args) != 2 {
			return rdf.Term{}, errTypeError
		}
		lang := strings.ToLower(args[0].Value)
		rng := strings.ToLower(args[1].Value)
		if rng == "*" {
			return rdf.NewBoolean(lang != ""), nil
		}
		return rdf.NewBoolean(lang == rng || strings.HasPrefix(lang, rng+"-")), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown function %s", x.Name)
}

// stringResult preserves the language tag of the source literal.
func stringResult(src rdf.Term, value string) rdf.Term {
	if src.Lang != "" {
		return rdf.NewLangLiteral(value, src.Lang)
	}
	return rdf.NewLiteral(value)
}

func roundFunc(t rdf.Term, f func(float64) float64) (rdf.Term, error) {
	n, ok := numericOf(t)
	if !ok {
		return rdf.Term{}, errTypeError
	}
	if n.isInt {
		return rdf.NewInteger(n.i), nil
	}
	return numericTerm(numeric{f: f(n.f)}), nil
}

// datePart extracts a slice of an ISO date/dateTime/gYearMonth lexical
// form and returns it as an integer.
func datePart(t rdf.Term, from, to int) (rdf.Term, error) {
	if !t.IsLiteral() || len(t.Value) < to {
		return rdf.Term{}, errTypeError
	}
	n, err := strconv.Atoi(t.Value[from:to])
	if err != nil {
		return rdf.Term{}, errTypeError
	}
	return rdf.NewInteger(int64(n)), nil
}
