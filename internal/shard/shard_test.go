package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/storage"
)

// The executor's own differential: random small graphs and random unions
// of 1–4-atom CQs — constants, repeated variables, disconnected atoms,
// boolean and partial heads, one-interval range constraints with and
// without a capture variable, hierarchy expansions — answered by
// brute-force nested loops and by the evaluator, with and without
// statistics, on a single store, on a 1-shard store (what an unsharded
// engine serves) and on 2- and 4-shard stores, with relations cut into
// chunks of one row, of four and of the default size. Range-free unions
// additionally go through the plain entry points.
func TestEvalMatchesBruteForceRandom(t *testing.T) {
	atChunkSizes(t, evalMatchesBruteForceRandom)
}

func evalMatchesBruteForceRandom(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		triples := randomGraph(r)
		u, plain := randomUnion(r)
		want := bruteForce(triples, u)

		d := dict.New()
		for d.Len() < maxID {
			d.EncodeIRI(fmt.Sprintf("t%d", d.Len()+1))
		}
		single := storage.Build(d, triples)
		one := shard.Build(d, storage.NewRun(triples), 1)
		two := shard.Build(d, storage.NewRun(triples), 2)
		four := shard.Build(d, storage.NewRun(triples), 4)
		for _, src := range []struct {
			name string
			src  exec.Source
			ss   *stats.Stats
		}{
			{"store", single, nil},
			{"store+stats", single, stats.Collect(single)},
			{"1 shard", one, nil},
			{"1 shard+stats", one, stats.Collect(one)},
			{"2 shards", two, nil},
			{"2 shards+stats", two, stats.Collect(two)},
			{"4 shards", four, nil},
			{"4 shards+stats", four, stats.Collect(four)},
		} {
			ev := exec.New(src.src, src.ss)
			check := func(entry string, got *exec.Relation, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d, %s, %s: %v", seed, src.name, entry, err)
				}
				if g := rowSet(got); g != want {
					t.Fatalf("seed %d, %s, %s:\n got %s\nwant %s\nunion %s", seed, src.name, entry, g, want, formatUnion(u))
				}
			}
			got, err := ev.EvalRangeUCQContext(context.Background(), u)
			check("EvalRangeUCQContext", got, err)
			if plain == nil {
				continue
			}
			got, err = ev.EvalUCQContext(context.Background(), *plain)
			check("EvalUCQContext", got, err)
			if len(plain.CQs) == 1 {
				got, err = ev.EvalCQContext(context.Background(), plain.HeadNames, plain.CQs[0])
				check("EvalCQContext", got, err)
			}
		}
	}
}

// IDs: nodes 1..nodeIDs are subjects and objects, the next propIDs are
// properties; a small domain makes joins, repeats and range hits likely.
const (
	nodeIDs = 8
	propIDs = 4
	maxID   = nodeIDs + propIDs
)

func randomGraph(r *rand.Rand) []dict.Triple {
	n := 1 + r.Intn(40)
	ts := make([]dict.Triple, n)
	for i := range ts {
		ts[i] = dict.Triple{
			S: dict.ID(1 + r.Intn(nodeIDs)),
			P: dict.ID(nodeIDs + 1 + r.Intn(propIDs)),
			O: dict.ID(1 + r.Intn(nodeIDs)),
		}
	}
	return storage.Merge(nil, ts, nil) // sorted and duplicate free, as Build takes them
}

// randomUnion draws a union of 1–3 CQs over one head width. plain is the
// same union in the plain form when no member has a range or an expansion.
func randomUnion(r *rand.Rand) (u query.RangeUCQ, plain *query.UCQ) {
	width := r.Intn(3)
	for i := 0; i < width; i++ {
		u.HeadNames = append(u.HeadNames, fmt.Sprintf("h%d", i))
	}
	rangeFree := r.Intn(3) == 0
	varNames := []string{"x", "y", "z", "w"}
	for m := 1 + r.Intn(3); m > 0; m-- {
		var cq query.RangeCQ
		var bound []string // variables a head position may use
		fresh := 0
		for n := 1 + r.Intn(4); n > 0; n-- {
			var a query.RangeAtom
			for pos, ra := range []*query.RangeArg{&a.S, &a.P, &a.O} {
				lo, span := 1, nodeIDs
				if pos == 1 {
					lo, span = nodeIDs+1, propIDs
				}
				// A third of the variables are head-less: the head never
				// reads them (another occurrence may still bind them).
				headless := r.Intn(3) == 0
				switch k := r.Intn(10); {
				case k < 5 || (pos != 1 && k < 7):
					ra.Arg = query.Variable(varNames[r.Intn(len(varNames))])
					if r.Intn(4) == 0 {
						// A once-only variable, like the reformulation's _fN.
						fresh++
						ra.Arg = query.Variable(fmt.Sprintf("f%d", fresh))
					}
					if !headless {
						bound = append(bound, ra.Arg.Var)
					}
				case k < 8 || rangeFree:
					ra.Arg = query.Constant(dict.ID(lo + r.Intn(span)))
				default:
					from := lo + r.Intn(span)
					to := from + r.Intn(lo+span-from)
					ra.Ranges = []storage.IDRange{{Lo: dict.ID(from), Hi: dict.ID(to)}}
					if r.Intn(2) == 0 {
						// Usually a fresh capture name, as the reformulator
						// emits; sometimes a body variable, so that probes
						// meet a range on a position the running result binds.
						fresh++
						ra.Arg = query.Variable(fmt.Sprintf("c%d", fresh))
						if r.Intn(3) == 0 {
							ra.Arg = query.Variable(varNames[r.Intn(len(varNames))])
						}
						if !headless {
							bound = append(bound, ra.Arg.Var)
						}
						if a.Expand == nil && r.Intn(2) == 0 {
							a.Expand = randomExpansion(r, ra.Arg.Var, varNames)
							if a.Expand.Out.IsVar() {
								bound = append(bound, a.Expand.Out.Var)
							}
						}
					}
				}
			}
			cq.Atoms = append(cq.Atoms, a)
		}
		for i := 0; i < width; i++ {
			if len(bound) == 0 || r.Intn(8) == 0 {
				cq.Head = append(cq.Head, query.Constant(dict.ID(1+r.Intn(maxID))))
			} else {
				cq.Head = append(cq.Head, query.Variable(bound[r.Intn(len(bound))]))
			}
		}
		u.CQs = append(u.CQs, cq)
	}
	if !rangeFree {
		return u, nil
	}
	plain = &query.UCQ{HeadNames: u.HeadNames}
	for _, cq := range u.CQs {
		p := query.CQ{Head: cq.Head}
		for _, a := range cq.Atoms {
			p.Atoms = append(p.Atoms, query.Atom{S: a.S.Arg, P: a.P.Arg, O: a.O.Arg})
		}
		plain.CQs = append(plain.CQs, p)
	}
	return u, plain
}

// randomExpansion maps the captured ID through a random sorted ancestor
// table into a body variable, a fresh variable or a constant.
func randomExpansion(r *rand.Rand, in string, varNames []string) *query.Expansion {
	e := &query.Expansion{In: in, Table: map[dict.ID][]dict.ID{}, Reflexive: r.Intn(2) == 0}
	for id := 1; id <= maxID; id++ {
		for anc := 1; anc <= maxID; anc++ {
			if r.Intn(6) == 0 {
				e.Table[dict.ID(id)] = append(e.Table[dict.ID(id)], dict.ID(anc))
			}
		}
	}
	switch r.Intn(3) {
	case 0:
		e.Out = query.Variable(varNames[r.Intn(len(varNames))])
	case 1:
		e.Out = query.Variable("e_" + in)
	default:
		e.Out = query.Constant(dict.ID(1 + r.Intn(maxID)))
	}
	return e
}

// bruteForce answers the union by nested loops over the triples, one atom
// at a time, then the expansions in atom order, and returns the distinct
// head rows in canonical form.
func bruteForce(triples []dict.Triple, u query.RangeUCQ) string {
	rows := map[string]bool{}
	for _, cq := range u.CQs {
		var match func(i int, env map[string]dict.ID)
		var expand func(i int, env map[string]dict.ID)
		emit := func(env map[string]dict.ID) {
			row := make([]string, len(cq.Head))
			for i, h := range cq.Head {
				id := h.ID
				if h.IsVar() {
					id = env[h.Var]
				}
				row[i] = fmt.Sprint(id)
			}
			rows[strings.Join(row, ",")] = true
		}
		expand = func(i int, env map[string]dict.ID) {
			if i == len(cq.Atoms) {
				emit(env)
				return
			}
			e := cq.Atoms[i].Expand
			if e == nil {
				expand(i+1, env)
				return
			}
			outs := append([]dict.ID(nil), e.Table[env[e.In]]...)
			if e.Reflexive {
				outs = append(outs, env[e.In])
			}
			for _, out := range outs {
				want, isBound := e.Out.ID, !e.Out.IsVar()
				if e.Out.IsVar() {
					want, isBound = env[e.Out.Var], env[e.Out.Var] != dict.None
				}
				switch {
				case isBound && want == out:
					expand(i+1, env)
				case !isBound:
					env[e.Out.Var] = out
					expand(i+1, env)
					delete(env, e.Out.Var)
				}
			}
		}
		match = func(i int, env map[string]dict.ID) {
			if i == len(cq.Atoms) {
				expand(0, env)
				return
			}
			a := cq.Atoms[i]
			for _, t := range triples {
				var set []string
				ok := true
				for pos, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
					id := [3]dict.ID{t.S, t.P, t.O}[pos]
					if ra.Ranges != nil && !storage.InRanges(ra.Ranges, id) {
						ok = false
					}
					switch {
					case !ra.Arg.IsVar():
						ok = ok && (ra.Ranges != nil || ra.Arg.ID == id)
					case env[ra.Arg.Var] == dict.None:
						env[ra.Arg.Var] = id
						set = append(set, ra.Arg.Var)
					default:
						ok = ok && env[ra.Arg.Var] == id
					}
				}
				if ok {
					match(i+1, env)
				}
				for _, v := range set {
					delete(env, v)
				}
			}
		}
		match(0, map[string]dict.ID{})
	}
	return canonical(rows)
}

func rowSet(r *exec.Relation) string {
	rows := map[string]bool{}
	for i := 0; i < r.Len(); i++ {
		row := make([]string, r.Width())
		for j, id := range r.Row(i) {
			row[j] = fmt.Sprint(id)
		}
		rows[strings.Join(row, ",")] = true
	}
	if len(rows) != r.Len() {
		return fmt.Sprintf("%d rows, %d distinct", r.Len(), len(rows))
	}
	return canonical(rows)
}

func canonical(rows map[string]bool) string {
	out := make([]string, 0, len(rows))
	for row := range rows {
		out = append(out, "("+row+")")
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func formatUnion(u query.RangeUCQ) string {
	var sb strings.Builder
	for _, cq := range u.CQs {
		fmt.Fprintf(&sb, "\n  %v :-", cq.Head)
		for _, a := range cq.Atoms {
			sb.WriteString(" " + query.FormatRangeAtom(nil, a) + ",")
		}
	}
	return sb.String()
}

// A one-shard store is its storage.Store: every exec.Source and
// stats.Source primitive answers alike, in the same order, on every pattern
// over a small domain and on random range patterns; statistics collected
// from either are equal field by field; its shard's SPO run is the run it
// was built from, not a copy; and neither a full scan nor a distinct count
// allocates more than on the store.
func TestOneShardIsItsStore(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	d := dict.New()
	ids := []dict.ID{dict.None}
	for id := dict.ID(1); id <= maxID; id++ {
		ids = append(ids, id)
	}
	randomRanges := func() []storage.IDRange {
		var rs []storage.IDRange
		for lo := dict.ID(1 + r.Intn(3)); lo <= maxID && r.Intn(3) != 0; {
			hi := lo + dict.ID(r.Intn(3))
			rs = append(rs, storage.IDRange{Lo: lo, Hi: hi})
			lo = hi + 2 + dict.ID(r.Intn(3))
		}
		return rs
	}
	eachRun := func(src exec.Source, pat storage.RangePattern) []dict.Triple {
		var out []dict.Triple
		src.EachRun(pat, func(ts []dict.Triple) bool { out = append(out, ts...); return true })
		return out
	}
	// exact is a plain pattern's position in range form: nil for a wildcard.
	exact := func(id dict.ID) []storage.IDRange {
		if id == dict.None {
			return nil
		}
		return []storage.IDRange{storage.Exact(id)}
	}
	for trial := 0; trial < 50; trial++ {
		triples := randomGraph(r)
		spo := storage.NewRun(triples)
		st, one := storage.Build(d, triples), shard.Build(d, spo, 1)
		if one.NumShards() != 1 || one.Len() != st.Len() || one.Dict() != st.Dict() || !slices.Equal(one.ShardStore(0).Triples(), st.Triples()) {
			t.Fatalf("trial %d: %d shards, %d triples %v, want 1 shard, %d triples %v",
				trial, one.NumShards(), one.Len(), one.ShardStore(0).Triples(), st.Len(), st.Triples())
		}
		if one.ShardStore(0).SPO() != spo {
			t.Fatalf("trial %d: a one-shard store's SPO run is a copy of the run it was built from", trial)
		}
		for _, s := range ids {
			if one.HomeShard(s) != 0 {
				t.Fatalf("subject %d homed on shard %d of 1", s, one.HomeShard(s))
			}
			for _, p := range ids {
				for _, o := range ids {
					pat := storage.Pattern{S: s, P: p, O: o}
					rp := storage.RangePattern{S: exact(s), P: exact(p), O: exact(o)}
					if g, w := eachRun(one, rp), eachRun(st, rp); !slices.Equal(g, w) {
						t.Fatalf("trial %d: EachRun(%v) = %v, store %v", trial, pat, g, w)
					}
					if g, w := one.Count(pat), st.Count(pat); g != w {
						t.Fatalf("trial %d: Count(%v) = %d, store %d", trial, pat, g, w)
					}
					for _, pos := range []byte("spo") {
						if g, w := one.DistinctInPosition(pat, pos), st.DistinctInPosition(pat, pos); g != w {
							t.Fatalf("trial %d: DistinctInPosition(%v, %c) = %d, store %d", trial, pat, pos, g, w)
						}
					}
				}
			}
		}
		for i := 0; i < 100; i++ {
			pat := storage.RangePattern{S: randomRanges(), P: randomRanges(), O: randomRanges()}
			if g, w := eachRun(one, pat), eachRun(st, pat); !slices.Equal(g, w) || one.CountRange(pat) != st.CountRange(pat) {
				t.Fatalf("trial %d: EachRun(%v) = %v (%d), store %v (%d)", trial, pat, g, one.CountRange(pat), w, st.CountRange(pat))
			}
		}
		got, want := stats.Collect(one), stats.Collect(st)
		sameStats(t, got, want, triples)
		for _, pos := range []byte("spo") {
			if g, w := got.TopValues(pos, 5), want.TopValues(pos, 5); !slices.Equal(g, w) {
				t.Fatalf("trial %d: TopValues(%c) = %v, store %v", trial, pos, g, w)
			}
		}
		if g, w := got.TopPairsPO(5), want.TopPairsPO(5); !slices.Equal(g, w) {
			t.Fatalf("trial %d: TopPairsPO = %v, store %v", trial, g, w)
		}
	}

	var big []dict.Triple
	for i := dict.ID(1); i <= 5000; i++ {
		big = append(big, dict.Triple{S: i, P: 1 + i%7, O: i % 97})
	}
	st, one := storage.Build(d, big), shard.Build(d, storage.NewRun(big), 1)
	n := 0
	count := func(ts []dict.Triple) bool { n += len(ts); return true }
	if g, w := testing.AllocsPerRun(20, func() { one.EachRun(storage.RangePattern{}, count) }),
		testing.AllocsPerRun(20, func() { st.EachRun(storage.RangePattern{}, count) }); g > w {
		t.Fatalf("a full scan allocates %v on a one-shard store, %v on its store", g, w)
	}
	if g, w := testing.AllocsPerRun(20, func() { one.DistinctInPosition(storage.Pattern{}, 'o') }),
		testing.AllocsPerRun(20, func() { st.DistinctInPosition(storage.Pattern{}, 'o') }); g > w {
		t.Fatalf("counting distinct objects allocates %v on a one-shard store, %v on its store", g, w)
	}
}

// Apply ≡ Build of the set result, shard by shard; untouched shards are
// shared, and one shard holds the result it is given as its SPO run;
// per-shard statistics that had been collected follow the delta and equal a
// fresh collection, as do the statistics of the whole.
func TestApplyMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := dict.New()
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(4)
		base := randomGraph(r)
		prev := shard.Build(d, storage.NewRun(base), n)
		whole := stats.Collect(prev)
		for i := 0; i < n; i += 2 {
			prev.ShardStats(i) // collected on some shards only
		}
		var added, removed []dict.Triple
		set := map[dict.Triple]bool{}
		for _, x := range base {
			set[x] = true
		}
		delta := randomGraph(r)
		delta = delta[:min(len(delta), 1+r.Intn(4))]
		for i, x := range delta {
			switch {
			case slices.Contains(delta[:i], x):
			case set[x]:
				removed = append(removed, x)
			default:
				added = append(added, x)
			}
		}
		for _, x := range added {
			set[x] = true
		}
		for _, x := range removed {
			set[x] = false
		}
		var result []dict.Triple
		for x, in := range set {
			if in {
				result = append(result, x)
			}
		}
		result = storage.Merge(nil, result, nil)
		spo := storage.NewRun(result)
		got, want := prev.Apply(spo, added, removed), shard.Build(d, spo, n)
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: Len %d, want %d", trial, got.Len(), want.Len())
		}
		touched := map[int]bool{}
		for _, x := range append(added, removed...) {
			touched[shard.Of(x.S, n)] = true
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(got.ShardStore(i).Triples(), want.ShardStore(i).Triples()) {
				t.Fatalf("trial %d shard %d: %v, want %v", trial, i, got.ShardStore(i).Triples(), want.ShardStore(i).Triples())
			}
			if n > 1 && !touched[i] && got.ShardStore(i) != prev.ShardStore(i) {
				t.Fatalf("trial %d: untouched shard %d was copied", trial, i)
			}
			if n == 1 && got.ShardStore(0).SPO() != spo {
				t.Fatalf("trial %d: one shard copied the SPO run it was given", trial)
			}
			sameStats(t, got.ShardStats(i), want.ShardStats(i), result)
		}
		sameStats(t, whole.Apply(got, added, removed), stats.Collect(want), result)
	}
}

func sameStats(t *testing.T, got, want *stats.Stats, triples []dict.Triple) {
	t.Helper()
	if got.N() != want.N() || got.DistinctSubjects() != want.DistinctSubjects() ||
		got.DistinctProperties() != want.DistinctProperties() || got.DistinctObjects() != want.DistinctObjects() {
		t.Fatalf("statistics: %d/%d/%d/%d, want %d/%d/%d/%d", got.N(), got.DistinctSubjects(), got.DistinctProperties(), got.DistinctObjects(),
			want.N(), want.DistinctSubjects(), want.DistinctProperties(), want.DistinctObjects())
	}
	for _, x := range triples {
		g, gok := got.Property(x.P)
		w, wok := want.Property(x.P)
		if g != w || gok != wok {
			t.Fatalf("property %d: %+v %v, want %+v %v", x.P, g, gok, w, wok)
		}
	}
}
