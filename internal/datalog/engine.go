// Package datalog implements the Dat query answering technique of the demo
// (§5): RDF data, RDFS constraints and the query are encoded into a Datalog
// program, which a bottom-up semi-naive engine evaluates — the stand-in for
// the LogicBlox back-end of the paper. Dat is an alternative to both Sat
// and Ref: like Sat it materializes consequences (inside the engine's
// fixpoint), like Ref it leaves the stored database untouched.
package datalog

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dict"
	"repro/internal/query"
)

// Atom is a Datalog atom: a predicate applied to arguments (constants or
// variables, reusing query.Arg).
type Atom struct {
	Pred string
	Args []query.Arg
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, arg := range a.Args {
		if arg.IsVar() {
			parts[i] = arg.Var
		} else {
			parts[i] = fmt.Sprintf("#%d", arg.ID)
		}
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Rule is head :- body.
type Rule struct {
	Head Atom
	Body []Atom
}

// String renders the rule.
func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, b := range r.Body {
		parts[i] = b.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ")
}

// Validate checks range restriction: every head variable occurs in the
// body, and arities are consistent within the program (checked by Program).
func (r Rule) Validate() error {
	body := map[string]bool{}
	for _, a := range r.Body {
		for _, arg := range a.Args {
			if arg.IsVar() {
				body[arg.Var] = true
			}
		}
	}
	for _, arg := range r.Head.Args {
		if arg.IsVar() && !body[arg.Var] {
			return fmt.Errorf("datalog: head variable %s of %s not range-restricted", arg.Var, r)
		}
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("datalog: rule %s has an empty body", r.Head)
	}
	return nil
}

// Fact is a ground atom.
type Fact struct {
	Pred string
	Args []dict.ID
}

// Program is a set of rules plus extensional facts.
type Program struct {
	Rules []Rule
	Facts []Fact
}

// Validate checks all rules and arity consistency.
func (p *Program) Validate() error {
	arity := map[string]int{}
	check := func(pred string, n int) error {
		if old, ok := arity[pred]; ok && old != n {
			return fmt.Errorf("datalog: predicate %s used with arities %d and %d", pred, old, n)
		}
		arity[pred] = n
		return nil
	}
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := check(r.Head.Pred, len(r.Head.Args)); err != nil {
			return err
		}
		for _, b := range r.Body {
			if err := check(b.Pred, len(b.Args)); err != nil {
				return err
			}
		}
	}
	for _, f := range p.Facts {
		if err := check(f.Pred, len(f.Args)); err != nil {
			return err
		}
	}
	return nil
}

// relation stores the tuples of one predicate with per-position indexes.
type relation struct {
	arity  int
	tuples [][]dict.ID
	set    map[string]bool
	index  []map[dict.ID][]int // position -> value -> tuple indexes
}

func newRelation(arity int) *relation {
	r := &relation{arity: arity, set: map[string]bool{}, index: make([]map[dict.ID][]int, arity)}
	for i := range r.index {
		r.index[i] = map[dict.ID][]int{}
	}
	return r
}

func tupleKey(t []dict.ID) string {
	var sb strings.Builder
	for _, id := range t {
		fmt.Fprintf(&sb, "%d,", id)
	}
	return sb.String()
}

// insert adds the tuple if new, reporting whether it was added.
func (r *relation) insert(t []dict.ID) bool {
	k := tupleKey(t)
	if r.set[k] {
		return false
	}
	r.set[k] = true
	idx := len(r.tuples)
	cp := append([]dict.ID(nil), t...)
	r.tuples = append(r.tuples, cp)
	for i, v := range cp {
		r.index[i][v] = append(r.index[i][v], idx)
	}
	return true
}

// Engine evaluates a program bottom-up with semi-naive iteration.
type Engine struct {
	rels map[string]*relation
	// Stats
	Iterations   int
	FactsDerived int
}

// RunContext evaluates the program to fixpoint and returns the engine
// holding the computed relations. The fixpoint iteration checks ctx once per
// semi-naive round, so a canceled context stops the saturation between
// rounds instead of running to completion.
func RunContext(ctx context.Context, p *Program) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{rels: map[string]*relation{}}
	rel := func(pred string, arity int) *relation {
		r, ok := e.rels[pred]
		if !ok {
			r = newRelation(arity)
			e.rels[pred] = r
		}
		return r
	}
	// Seed predicates mentioned anywhere so lookups are total.
	for _, r := range p.Rules {
		rel(r.Head.Pred, len(r.Head.Args))
		for _, b := range r.Body {
			rel(b.Pred, len(b.Args))
		}
	}
	type change struct {
		pred string
		idx  int
	}
	var delta []change
	for _, f := range p.Facts {
		r := rel(f.Pred, len(f.Args))
		if r.insert(f.Args) {
			delta = append(delta, change{f.Pred, len(r.tuples) - 1})
		}
	}
	// Semi-naive: each round, every rule fires with one body atom ranging
	// over the delta and the rest over the full relations.
	for len(delta) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("datalog: canceled after %d iterations: %w", e.Iterations, err)
		}
		e.Iterations++
		deltaByPred := map[string][]int{}
		for _, c := range delta {
			deltaByPred[c.pred] = append(deltaByPred[c.pred], c.idx)
		}
		var next []change
		for _, rule := range p.Rules {
			for di, b := range rule.Body {
				dIdxs := deltaByPred[b.Pred]
				if len(dIdxs) == 0 {
					continue
				}
				e.fireRule(rule, di, dIdxs, func(head []dict.ID) {
					r := e.rels[rule.Head.Pred]
					if r.insert(head) {
						next = append(next, change{rule.Head.Pred, len(r.tuples) - 1})
						e.FactsDerived++
					}
				})
			}
		}
		delta = next
	}
	return e, nil
}

// fireRule enumerates all body matches where atom di binds to one of the
// delta tuples, emitting instantiated heads. The delta atom is matched
// first; the remaining atoms are chosen greedily by current candidate
// count (cheapest first), which keeps multi-join rules — like encoded
// 6-atom queries — from degenerating into cross products.
func (e *Engine) fireRule(rule Rule, di int, deltaIdxs []int, emit func([]dict.ID)) {
	binding := map[string]dict.ID{}
	done := make([]bool, len(rule.Body))
	var rec func(matched int)
	matchAtom := func(ai int, candidates []int, matched int) {
		atom := rule.Body[ai]
		r := e.rels[atom.Pred]
		done[ai] = true
		for _, ti := range candidates {
			t := r.tuples[ti]
			var bound []string
			ok := true
			for k, arg := range atom.Args {
				if !arg.IsVar() {
					if t[k] != arg.ID {
						ok = false
						break
					}
					continue
				}
				if v, has := binding[arg.Var]; has {
					if v != t[k] {
						ok = false
						break
					}
					continue
				}
				binding[arg.Var] = t[k]
				bound = append(bound, arg.Var)
			}
			if ok {
				rec(matched + 1)
			}
			for _, v := range bound {
				delete(binding, v)
			}
		}
		done[ai] = false
	}
	rec = func(matched int) {
		if matched == len(rule.Body) {
			head := make([]dict.ID, len(rule.Head.Args))
			for i, arg := range rule.Head.Args {
				if arg.IsVar() {
					head[i] = binding[arg.Var]
				} else {
					head[i] = arg.ID
				}
			}
			emit(head)
			return
		}
		// Pick the cheapest remaining atom under the current binding.
		best, bestCount := -1, 0
		for ai := range rule.Body {
			if done[ai] {
				continue
			}
			n := e.rels[rule.Body[ai].Pred].countCandidates(rule.Body[ai], binding)
			if best == -1 || n < bestCount {
				best, bestCount = ai, n
			}
		}
		atom := rule.Body[best]
		matchAtom(best, e.rels[atom.Pred].candidates(atom, binding), matched)
	}
	// Seed with the delta atom.
	matchAtom(di, deltaIdxs, 0)
}

// countCandidates returns the size of the candidate list candidates would
// return, without allocating the full-scan fallback.
func (r *relation) countCandidates(atom Atom, binding map[string]dict.ID) int {
	best, found := 0, false
	for k, arg := range atom.Args {
		var v dict.ID
		if !arg.IsVar() {
			v = arg.ID
		} else if b, ok := binding[arg.Var]; ok {
			v = b
		} else {
			continue
		}
		l := len(r.index[k][v])
		if !found || l < best {
			best, found = l, true
		}
	}
	if !found {
		return len(r.tuples)
	}
	return best
}

// candidates returns tuple indexes possibly matching the atom under the
// binding, using the index of the most selective bound position.
func (r *relation) candidates(atom Atom, binding map[string]dict.ID) []int {
	bestPos, bestVal, bestLen := -1, dict.None, 0
	for k, arg := range atom.Args {
		var v dict.ID
		if !arg.IsVar() {
			v = arg.ID
		} else if b, ok := binding[arg.Var]; ok {
			v = b
		} else {
			continue
		}
		l := len(r.index[k][v])
		if bestPos == -1 || l < bestLen {
			bestPos, bestVal, bestLen = k, v, l
		}
	}
	if bestPos == -1 {
		all := make([]int, len(r.tuples))
		for i := range all {
			all[i] = i
		}
		return all
	}
	return r.index[bestPos][bestVal]
}

// Tuples returns the computed tuples of a predicate, sorted.
func (e *Engine) Tuples(pred string) [][]dict.ID {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	out := make([][]dict.ID, len(r.tuples))
	copy(out, r.tuples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Count returns the number of tuples of a predicate.
func (e *Engine) Count(pred string) int {
	r, ok := e.rels[pred]
	if !ok {
		return 0
	}
	return len(r.tuples)
}
