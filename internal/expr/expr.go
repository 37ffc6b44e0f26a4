// Package expr implements a small arithmetic expression language used for
// user-defined utility and cost functions (the paper lets the query issuer
// supply both). It provides a recursive-descent parser, an evaluator over
// variable environments, and the structural analysis behind Section 5.2's
// variable substitution: expressions of the form Σ wᵢ·gᵢ(attrs) can be
// linearised so each gᵢ(attrs) becomes an augmented attribute computed on the
// fly.
//
// Grammar (standard precedence, ^ is right-associative power):
//
//	expr    = term { ("+" | "-") term }
//	term    = factor { ("*" | "/") factor }
//	factor  = unary { "^" unary }
//	unary   = ["-"] primary
//	primary = number | ident | ident "(" args ")" | "(" expr ")"
//
// Builtins: sqrt, abs, log, exp, min, max, pow.
//
// Parse rejects input nested deeper than MaxDepth, so the recursive parser
// and the recursive Eval/String/Vars walks over a parsed tree stay within a
// small, fixed stack however long the input is.
package expr

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Node is an expression AST node.
type Node interface {
	// Eval computes the node's value in the given environment. Unknown
	// variables yield an error.
	Eval(env map[string]float64) (float64, error)
	// String renders the node as parseable source.
	String() string
	// Vars adds every variable the node references into set.
	Vars(set map[string]struct{})
}

// Num is a numeric literal.
type Num struct{ Value float64 }

// Var is a variable reference.
type Var struct{ Name string }

// Unary is a unary operation; only negation exists.
type Unary struct{ X Node }

// Binary is a binary operation: + - * / ^.
type Binary struct {
	Op   byte
	L, R Node
}

// Call is a builtin function call.
type Call struct {
	Fn   string
	Args []Node
}

// Eval implements Node.
func (n Num) Eval(map[string]float64) (float64, error) { return n.Value, nil }

// Eval implements Node.
func (v Var) Eval(env map[string]float64) (float64, error) {
	x, ok := env[v.Name]
	if !ok {
		return 0, fmt.Errorf("expr: unknown variable %q", v.Name)
	}
	return x, nil
}

// Eval implements Node.
func (u Unary) Eval(env map[string]float64) (float64, error) {
	x, err := u.X.Eval(env)
	return -x, err
}

// Eval implements Node.
func (b Binary) Eval(env map[string]float64) (float64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, errors.New("expr: division by zero")
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, fmt.Errorf("expr: unknown operator %q", b.Op)
}

// Eval implements Node.
func (c Call) Eval(env map[string]float64) (float64, error) {
	args := make([]float64, len(c.Args))
	for i, a := range c.Args {
		x, err := a.Eval(env)
		if err != nil {
			return 0, err
		}
		args[i] = x
	}
	switch c.Fn {
	case "sqrt":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: sqrt takes 1 arg, got %d", len(args))
		}
		if args[0] < 0 {
			return 0, fmt.Errorf("expr: sqrt of negative %g", args[0])
		}
		return math.Sqrt(args[0]), nil
	case "abs":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: abs takes 1 arg, got %d", len(args))
		}
		return math.Abs(args[0]), nil
	case "log":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: log takes 1 arg, got %d", len(args))
		}
		if args[0] <= 0 {
			return 0, fmt.Errorf("expr: log of non-positive %g", args[0])
		}
		return math.Log(args[0]), nil
	case "exp":
		if len(args) != 1 {
			return 0, fmt.Errorf("expr: exp takes 1 arg, got %d", len(args))
		}
		return math.Exp(args[0]), nil
	case "min":
		if len(args) < 1 {
			return 0, errors.New("expr: min needs at least 1 arg")
		}
		m := args[0]
		for _, x := range args[1:] {
			m = math.Min(m, x)
		}
		return m, nil
	case "max":
		if len(args) < 1 {
			return 0, errors.New("expr: max needs at least 1 arg")
		}
		m := args[0]
		for _, x := range args[1:] {
			m = math.Max(m, x)
		}
		return m, nil
	case "pow":
		if len(args) != 2 {
			return 0, fmt.Errorf("expr: pow takes 2 args, got %d", len(args))
		}
		return math.Pow(args[0], args[1]), nil
	}
	return 0, fmt.Errorf("expr: unknown function %q", c.Fn)
}

// String implements Node.
func (n Num) String() string { return strconv.FormatFloat(n.Value, 'g', -1, 64) }

// String implements Node.
func (v Var) String() string { return v.Name }

// String implements Node.
func (u Unary) String() string { return "-" + paren(u.X) }

// String implements Node.
func (b Binary) String() string {
	return paren(b.L) + " " + string(b.Op) + " " + paren(b.R)
}

// String implements Node.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

func paren(n Node) string {
	switch n.(type) {
	case Num, Var, Call:
		return n.String()
	default:
		return "(" + n.String() + ")"
	}
}

// Vars implements Node.
func (n Num) Vars(map[string]struct{}) {}

// Vars implements Node.
func (v Var) Vars(set map[string]struct{}) { set[v.Name] = struct{}{} }

// Vars implements Node.
func (u Unary) Vars(set map[string]struct{}) { u.X.Vars(set) }

// Vars implements Node.
func (b Binary) Vars(set map[string]struct{}) { b.L.Vars(set); b.R.Vars(set) }

// Vars implements Node.
func (c Call) Vars(set map[string]struct{}) {
	for _, a := range c.Args {
		a.Vars(set)
	}
}

// VarsOf returns the sorted-free variable set of n as a map.
func VarsOf(n Node) map[string]struct{} {
	set := map[string]struct{}{}
	n.Vars(set)
	return set
}

// --- Parser ---

// MaxDepth bounds expression nesting. Parse counts one level for every open
// parenthesis, call, unary minus and power, and for every chained + - * /
// operator, and it rejects a tree taller than MaxDepth. Real cost and
// utility expressions nest a few levels deep.
const MaxDepth = 1000

type parser struct {
	src   string
	pos   int
	depth int // levels open at pos (see MaxDepth)
}

// Parse parses source text into an AST.
func Parse(src string) (Node, error) {
	p := &parser{src: src}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("expr: unexpected %q at offset %d", p.src[p.pos:], p.pos)
	}
	if tooDeep(n, MaxDepth) {
		return nil, errTooDeep
	}
	return n, nil
}

var errTooDeep = fmt.Errorf("expr: expression nests deeper than %d levels", MaxDepth)

// nest opens one nesting level; the caller restores p.depth when the level
// closes.
func (p *parser) nest() error {
	p.depth++
	if p.depth > MaxDepth {
		return errTooDeep
	}
	return nil
}

// tooDeep reports whether n is taller than limit. It visits each node at
// most once and recurses at most limit+1 levels.
func tooDeep(n Node, limit int) bool {
	if limit < 0 {
		return true
	}
	switch n := n.(type) {
	case Unary:
		return tooDeep(n.X, limit-1)
	case Binary:
		return tooDeep(n.L, limit-1) || tooDeep(n.R, limit-1)
	case Call:
		for _, a := range n.Args {
			if tooDeep(a, limit-1) {
				return true
			}
		}
	}
	return false
}

// MustParse parses src, panicking on error. For tests and package literals.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseExpr() (Node, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	defer func(d int) { p.depth = d }(p.depth)
	for {
		switch op := p.peek(); op {
		case '+', '-':
			p.pos++
			if err := p.nest(); err != nil {
				return nil, err
			}
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = Binary{Op: op, L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseTerm() (Node, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	defer func(d int) { p.depth = d }(p.depth)
	for {
		switch op := p.peek(); op {
		case '*', '/':
			p.pos++
			if err := p.nest(); err != nil {
				return nil, err
			}
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = Binary{Op: op, L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseFactor() (Node, error) {
	base, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.peek() == '^' {
		p.pos++
		defer func(d int) { p.depth = d }(p.depth)
		if err := p.nest(); err != nil {
			return nil, err
		}
		exp, err := p.parseFactor() // right-associative
		if err != nil {
			return nil, err
		}
		return Binary{Op: '^', L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parseUnary() (Node, error) {
	if p.peek() == '-' {
		p.pos++
		defer func(d int) { p.depth = d }(p.depth)
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	c := p.peek()
	switch {
	case c == '(':
		p.pos++
		defer func(d int) { p.depth = d }(p.depth)
		if err := p.nest(); err != nil {
			return nil, err
		}
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("expr: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return n, nil
	case c >= '0' && c <= '9' || c == '.':
		return p.parseNumber()
	case isIdentStart(rune(c)):
		return p.parseIdentOrCall()
	case c == 0:
		return nil, errors.New("expr: unexpected end of input")
	default:
		return nil, fmt.Errorf("expr: unexpected character %q at offset %d", c, p.pos)
	}
}

func (p *parser) parseNumber() (Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		if (c == '+' || c == '-') && p.pos > start &&
			(p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E') {
			p.pos++
			continue
		}
		break
	}
	text := p.src[start:p.pos]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("expr: bad number %q: %w", text, err)
	}
	return Num{Value: v}, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

func (p *parser) parseIdentOrCall() (Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isIdentPart(rune(p.src[p.pos])) {
		p.pos++
	}
	name := p.src[start:p.pos]
	if p.peek() != '(' {
		return Var{Name: name}, nil
	}
	p.pos++ // consume '('
	defer func(d int) { p.depth = d }(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	var args []Node
	if p.peek() != ')' {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, arg)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
	}
	if p.peek() != ')' {
		return nil, fmt.Errorf("expr: missing ')' in call to %s", name)
	}
	p.pos++
	return Call{Fn: name, Args: args}, nil
}
