package query

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// ParseError reports a query parse failure.
type ParseError struct {
	Pos int
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("query: offset %d: %s", e.Pos, e.Msg)
}

// ParseSPARQLUnion parses the full dialect of §3 — "(unions of) BGP
// queries": either a plain BGP (one-member union) or
//
//	SELECT ?x WHERE { { …BGP… } UNION { …BGP… } UNION { …BGP… } }
//
// Every head variable must occur in every branch (safety per member).
func ParseSPARQLUnion(d *dict.Dict, text string) (UCQ, error) {
	p := &qparser{src: text, d: d, prefixes: map[string]string{}}
	for k, v := range rdf.WellKnownPrefixes {
		p.prefixes[k] = v
	}
	return p.parseSPARQLUnion()
}

// ParseSPARQL parses a SPARQL basic-graph-pattern query of the form
//
//	PREFIX ub: <http://...#>
//	SELECT ?x ?y WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?y }
//
// (the "(unions of) BGP queries" dialect of §3), encoding constants against
// d. DISTINCT is accepted (answers use set semantics regardless); "a"
// abbreviates rdf:type; ";" and "," abbreviations are supported; SELECT *
// selects every variable in order of appearance.
func ParseSPARQL(d *dict.Dict, text string) (CQ, error) {
	p := &qparser{src: text, d: d, prefixes: map[string]string{}}
	for k, v := range rdf.WellKnownPrefixes {
		p.prefixes[k] = v
	}
	return p.parseSPARQL()
}

// ParseRule parses the paper's CQ notation
//
//	q(x, y) :- x rdf:type ub:Student, x ub:memberOf y
//
// where bare identifiers are variables and prefixed names or <IRIs> are
// constants.
func ParseRule(d *dict.Dict, text string) (CQ, error) {
	p := &qparser{src: text, d: d, prefixes: map[string]string{}}
	for k, v := range rdf.WellKnownPrefixes {
		p.prefixes[k] = v
	}
	return p.parseRule()
}

// ParseRuleWithPrefixes is ParseRule with additional prefix declarations.
func ParseRuleWithPrefixes(d *dict.Dict, prefixes map[string]string, text string) (CQ, error) {
	p := &qparser{src: text, d: d, prefixes: map[string]string{}}
	for k, v := range rdf.WellKnownPrefixes {
		p.prefixes[k] = v
	}
	for k, v := range prefixes {
		p.prefixes[k] = v
	}
	return p.parseRule()
}

type qparser struct {
	src      string
	pos      int
	d        *dict.Dict
	prefixes map[string]string
}

func (p *qparser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *qparser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '#' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		p.pos++
	}
}

func (p *qparser) eof() bool {
	p.skipWS()
	return p.pos >= len(p.src)
}

func (p *qparser) peekByte() byte {
	p.skipWS()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *qparser) tryKeyword(kw string) bool {
	p.skipWS()
	if len(p.src)-p.pos < len(kw) {
		return false
	}
	if !strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	end := p.pos + len(kw)
	if end < len(p.src) && isNameByte(p.src[end]) {
		return false
	}
	p.pos = end
	return true
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' ||
		(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (p *qparser) readName() string {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *qparser) expect(c byte) error {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *qparser) parseIRIRef() (string, error) {
	if err := p.expect('<'); err != nil {
		return "", err
	}
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '>' {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated IRI")
	}
	iri := p.src[start:p.pos]
	p.pos++
	if iri == "" {
		return "", p.errf("empty IRI")
	}
	return iri, nil
}

// --- SPARQL --------------------------------------------------------------

func (p *qparser) parseSPARQL() (CQ, error) {
	headVars, star, err := p.parseSelectClause()
	if err != nil {
		return CQ{}, err
	}
	if err := p.expect('{'); err != nil {
		return CQ{}, err
	}
	atoms, err := p.parseBGP(true)
	if err != nil {
		return CQ{}, err
	}
	if err := p.expect('}'); err != nil {
		return CQ{}, err
	}
	q := CQ{Atoms: atoms}
	if star {
		headVars = q.Vars()
	}
	q.Head = make([]Arg, len(headVars))
	for i, v := range headVars {
		q.Head[i] = Variable(v)
	}
	if err := q.Validate(); err != nil {
		return CQ{}, err
	}
	if !p.eof() {
		return CQ{}, p.errf("trailing input after query")
	}
	return q, nil
}

// parseBGP parses triples separated by '.', with ';' and ',' abbreviations.
// sparqlVars selects the term syntax (?x vs bare names).
func (p *qparser) parseBGP(sparqlVars bool) ([]Atom, error) {
	var atoms []Atom
	for {
		c := p.peekByte()
		if c == '}' || c == 0 {
			return atoms, nil
		}
		subj, err := p.parseArg(sparqlVars)
		if err != nil {
			return nil, err
		}
		for {
			pred, err := p.parseArg(sparqlVars)
			if err != nil {
				return nil, err
			}
			for {
				obj, err := p.parseArg(sparqlVars)
				if err != nil {
					return nil, err
				}
				atoms = append(atoms, Atom{S: subj, P: pred, O: obj})
				if p.peekByte() == ',' {
					p.pos++
					continue
				}
				break
			}
			if p.peekByte() == ';' {
				p.pos++
				if next := p.peekByte(); next == '.' || next == '}' || next == 0 {
					break
				}
				continue
			}
			break
		}
		switch p.peekByte() {
		case '.':
			p.pos++
		case '}', 0:
			return atoms, nil
		default:
			return nil, p.errf("expected '.', '}' or end after triple")
		}
	}
}

func (p *qparser) parseArg(sparqlVars bool) (Arg, error) {
	c := p.peekByte()
	switch {
	case c == '?' || c == '$':
		p.pos++
		v := p.readName()
		if v == "" {
			return Arg{}, p.errf("empty variable name")
		}
		if strings.HasPrefix(v, FreshVarPrefix) {
			return Arg{}, p.errf("variable prefix %q is reserved", FreshVarPrefix)
		}
		return Variable(v), nil
	case c == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return Arg{}, err
		}
		return Constant(p.d.Encode(rdf.NewIRI(iri))), nil
	case c == '"':
		return p.parseLiteralArg()
	case c == '_':
		// _:label — treated as a constant blank node (rare in queries;
		// the RDF spec allows them as non-distinguished variables, but
		// the paper's dialect does not use them, so constants are the
		// safer reading).
		p.pos++
		if err := p.expect(':'); err != nil {
			return Arg{}, err
		}
		label := p.readName()
		if label == "" {
			return Arg{}, p.errf("empty blank node label")
		}
		return Constant(p.d.Encode(rdf.NewBlank(label))), nil
	case c >= '0' && c <= '9':
		name := p.readName()
		return Constant(p.d.Encode(rdf.NewTypedLiteral(name, rdf.XSDInteger))), nil
	case c == 0:
		return Arg{}, p.errf("expected term, got end of input")
	default:
		name := p.readName()
		if name == "" {
			return Arg{}, p.errf("expected term")
		}
		if p.pos < len(p.src) && p.src[p.pos] == ':' {
			p.pos++
			local := p.readName()
			ns, ok := p.prefixes[name]
			if !ok {
				return Arg{}, p.errf("undeclared prefix %q", name)
			}
			return Constant(p.d.Encode(rdf.NewIRI(ns + local))), nil
		}
		if name == "a" && sparqlVars {
			// The "a" keyword abbreviates rdf:type in SPARQL syntax only;
			// in rule notation bare names are variables.
			return Constant(p.d.Encode(rdf.Type)), nil
		}
		if sparqlVars {
			return Arg{}, p.errf("bare name %q (variables need '?')", name)
		}
		if strings.HasPrefix(name, FreshVarPrefix) {
			return Arg{}, p.errf("variable prefix %q is reserved", FreshVarPrefix)
		}
		return Variable(name), nil
	}
}

func (p *qparser) parseLiteralArg() (Arg, error) {
	if err := p.expect('"'); err != nil {
		return Arg{}, err
	}
	var sb strings.Builder
	for {
		if p.pos >= len(p.src) {
			return Arg{}, p.errf("unterminated literal")
		}
		c := p.src[p.pos]
		p.pos++
		if c == '"' {
			break
		}
		if c == '\\' {
			if p.pos >= len(p.src) {
				return Arg{}, p.errf("unterminated escape")
			}
			e := p.src[p.pos]
			p.pos++
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				return Arg{}, p.errf("invalid escape \\%c", e)
			}
			continue
		}
		sb.WriteByte(c)
	}
	lex := sb.String()
	if p.pos < len(p.src) && p.src[p.pos] == '@' {
		p.pos++
		lang := p.readName()
		if lang == "" {
			return Arg{}, p.errf("empty language tag")
		}
		return Constant(p.d.Encode(rdf.NewLangLiteral(lex, lang))), nil
	}
	if p.pos+1 < len(p.src) && p.src[p.pos] == '^' && p.src[p.pos+1] == '^' {
		p.pos += 2
		if p.peekByte() == '<' {
			iri, err := p.parseIRIRef()
			if err != nil {
				return Arg{}, err
			}
			return Constant(p.d.Encode(rdf.NewTypedLiteral(lex, iri))), nil
		}
		name := p.readName()
		if err := p.expect(':'); err != nil {
			return Arg{}, err
		}
		local := p.readName()
		ns, ok := p.prefixes[name]
		if !ok {
			return Arg{}, p.errf("undeclared prefix %q", name)
		}
		return Constant(p.d.Encode(rdf.NewTypedLiteral(lex, ns+local))), nil
	}
	return Constant(p.d.Encode(rdf.NewLiteral(lex))), nil
}

func (p *qparser) parseSPARQLUnion() (UCQ, error) {
	headVars, star, err := p.parseSelectClause()
	if err != nil {
		return UCQ{}, err
	}
	if err := p.expect('{'); err != nil {
		return UCQ{}, err
	}
	var bodies [][]Atom
	if p.peekByte() == '{' {
		// Union of braced groups.
		for {
			if err := p.expect('{'); err != nil {
				return UCQ{}, err
			}
			atoms, err := p.parseBGP(true)
			if err != nil {
				return UCQ{}, err
			}
			if err := p.expect('}'); err != nil {
				return UCQ{}, err
			}
			bodies = append(bodies, atoms)
			if p.tryKeyword("UNION") {
				continue
			}
			break
		}
	} else {
		atoms, err := p.parseBGP(true)
		if err != nil {
			return UCQ{}, err
		}
		bodies = append(bodies, atoms)
	}
	if err := p.expect('}'); err != nil {
		return UCQ{}, err
	}
	if !p.eof() {
		return UCQ{}, p.errf("trailing input after query")
	}
	if star {
		// SELECT *: the head is the variables common to all branches, in
		// first-branch order (the only safe reading for a union).
		common := map[string]int{}
		for _, body := range bodies {
			seen := map[string]bool{}
			for _, a := range body {
				for _, v := range a.Vars(nil) {
					if !seen[v] {
						seen[v] = true
						common[v]++
					}
				}
			}
		}
		headVars = nil
		for _, a := range bodies[0] {
			for _, v := range a.Vars(nil) {
				if common[v] == len(bodies) && !containsStr(headVars, v) {
					headVars = append(headVars, v)
				}
			}
		}
		if len(headVars) == 0 {
			return UCQ{}, p.errf("SELECT *: no variable occurs in every UNION branch")
		}
	}
	u := UCQ{HeadNames: headVars}
	for i, body := range bodies {
		cq := NewCQ(headVars, body)
		if err := cq.Validate(); err != nil {
			if len(bodies) == 1 {
				return UCQ{}, p.errf("%v", err)
			}
			return UCQ{}, p.errf("UNION branch %d: %v", i+1, err)
		}
		u.CQs = append(u.CQs, cq)
	}
	return u, nil
}

// parseSelectClause parses PREFIX declarations and the SELECT list,
// leaving the parser just before the WHERE group.
func (p *qparser) parseSelectClause() (headVars []string, star bool, err error) {
	for p.tryKeyword("PREFIX") {
		name := p.readName()
		if err := p.expect(':'); err != nil {
			return nil, false, err
		}
		iri, err := p.parseIRIRef()
		if err != nil {
			return nil, false, err
		}
		p.prefixes[name] = iri
	}
	if !p.tryKeyword("SELECT") {
		return nil, false, p.errf("expected SELECT")
	}
	p.tryKeyword("DISTINCT")
	for {
		c := p.peekByte()
		if c == '*' {
			p.pos++
			star = true
			break
		}
		if c != '?' && c != '$' {
			break
		}
		p.pos++
		v := p.readName()
		if v == "" {
			return nil, false, p.errf("empty variable name")
		}
		if strings.HasPrefix(v, FreshVarPrefix) {
			return nil, false, p.errf("variable prefix %q is reserved", FreshVarPrefix)
		}
		headVars = append(headVars, v)
	}
	if !star && len(headVars) == 0 {
		return nil, false, p.errf("SELECT needs at least one variable or *")
	}
	p.tryKeyword("WHERE")
	return headVars, star, nil
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// --- rule notation ---------------------------------------------------------

func (p *qparser) parseRule() (CQ, error) {
	name := p.readName()
	if name == "" {
		return CQ{}, p.errf("expected query name")
	}
	if err := p.expect('('); err != nil {
		return CQ{}, err
	}
	var headVars []string
	for {
		if p.peekByte() == ')' {
			p.pos++
			break
		}
		v := p.readName()
		if v == "" {
			return CQ{}, p.errf("expected head variable")
		}
		if strings.HasPrefix(v, FreshVarPrefix) {
			return CQ{}, p.errf("variable prefix %q is reserved", FreshVarPrefix)
		}
		headVars = append(headVars, v)
		if p.peekByte() == ',' {
			p.pos++
		}
	}
	p.skipWS()
	if !strings.HasPrefix(p.src[p.pos:], ":-") {
		return CQ{}, p.errf("expected ':-'")
	}
	p.pos += 2
	var atoms []Atom
	for {
		s, err := p.parseArg(false)
		if err != nil {
			return CQ{}, err
		}
		pr, err := p.parseArg(false)
		if err != nil {
			return CQ{}, err
		}
		o, err := p.parseArg(false)
		if err != nil {
			return CQ{}, err
		}
		atoms = append(atoms, Atom{S: s, P: pr, O: o})
		if p.peekByte() == ',' {
			p.pos++
			continue
		}
		break
	}
	q := NewCQ(headVars, atoms)
	if err := q.Validate(); err != nil {
		return CQ{}, err
	}
	if !p.eof() {
		return CQ{}, p.errf("trailing input after query")
	}
	return q, nil
}
