// Package federation implements the §1 deployment that motivates
// reformulation: Semantic Web data split across independent RDF endpoints.
// Implicit facts can follow from a triple in one source and a constraint
// in another, the sources are read-only (no way to saturate them), and the
// complete distributed closure is not computable source by source — so a
// mediator fetches the sources' *explicit* triples, merges them into one
// graph, and answers queries by reformulation.
//
// Source is pattern-granular and context-aware: a source answers
// ScanPattern(ctx, pattern) with an iterator over its matching explicit
// triples, and Stats(ctx) with coarse sizing. In-process stores (a shard
// of a subject-hash-partitioned store, a whole graph) and remote refserve
// peers implement the same interface, so the mediator's merge path is one
// scatter-gather — sources fetch in parallel, the gather dedups and
// closes the union schema — whether the "shards" are goroutines or hosts.
package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/storage"
)

// --- the Source API ----------------------------------------------------------

// Pattern selects triples at a federated source by constant terms; nil
// positions are wildcards. The zero Pattern matches every triple — the
// dump, expressed as a scan.
type Pattern struct {
	S, P, O *rdf.Term
}

// Matches reports whether t matches the pattern.
func (p Pattern) Matches(t rdf.Triple) bool {
	return (p.S == nil || *p.S == t.S) &&
		(p.P == nil || *p.P == t.P) &&
		(p.O == nil || *p.O == t.O)
}

// Iterator streams one source's matching triples. Next returns false at
// exhaustion or failure; Err distinguishes (nil on clean exhaustion).
// Close releases the scan's resources and is safe to call repeatedly.
type Iterator interface {
	Next() (rdf.Triple, bool)
	Err() error
	Close() error
}

// SourceStats is one source's coarse sizing, for mediator-side planning
// and accounting.
type SourceStats struct {
	// Triples is the source's explicit triple count (data + schema).
	Triples int `json:"triples"`
}

// Source is one federated RDF source. ScanPattern streams its explicit
// triples matching the pattern (data plus constraint triples, exactly
// what a real endpoint exports — never the saturation); canceling ctx
// aborts the scan. The zero Pattern is the full dump.
type Source interface {
	Name() string
	ScanPattern(ctx context.Context, pat Pattern) (Iterator, error)
	Stats(ctx context.Context) (SourceStats, error)
}

// Collect drains one pattern scan into a slice.
func Collect(ctx context.Context, src Source, pat Pattern) ([]rdf.Triple, error) {
	it, err := src.ScanPattern(ctx, pat)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []rdf.Triple
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// sliceIterator filters an in-memory slice against a pattern.
type sliceIterator struct {
	ts  []rdf.Triple
	pat Pattern
	i   int
}

func (it *sliceIterator) Next() (rdf.Triple, bool) {
	for it.i < len(it.ts) {
		t := it.ts[it.i]
		it.i++
		if it.pat.Matches(t) {
			return t, true
		}
	}
	return rdf.Triple{}, false
}

func (it *sliceIterator) Err() error   { return nil }
func (it *sliceIterator) Close() error { return nil }

// idIterator decodes encoded triples lazily — sources backed by a
// dictionary only pay decoding for the triples the pattern keeps.
type idIterator struct {
	d  *dict.Dict
	ts []dict.Triple
	i  int
}

func (it *idIterator) Next() (rdf.Triple, bool) {
	if it.i >= len(it.ts) {
		return rdf.Triple{}, false
	}
	t := it.d.DecodeTriple(it.ts[it.i])
	it.i++
	return t, true
}

func (it *idIterator) Err() error   { return nil }
func (it *idIterator) Close() error { return nil }

// --- concrete sources --------------------------------------------------------

// LocalSource serves triples from memory (an in-process endpoint).
type LocalSource struct {
	SourceName string
	Triples    []rdf.Triple
}

// Name implements Source.
func (s *LocalSource) Name() string { return s.SourceName }

// ScanPattern implements Source.
func (s *LocalSource) ScanPattern(ctx context.Context, pat Pattern) (Iterator, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("federation: source %s: %w", s.SourceName, err)
	}
	return &sliceIterator{ts: s.Triples, pat: pat}, nil
}

// Stats implements Source.
func (s *LocalSource) Stats(context.Context) (SourceStats, error) {
	return SourceStats{Triples: len(s.Triples)}, nil
}

// GraphSource exposes an existing graph as a source.
type GraphSource struct {
	SourceName string
	Graph      *graph.Graph
}

// Name implements Source.
func (s *GraphSource) Name() string { return s.SourceName }

// ScanPattern implements Source: bound positions encode against the
// graph's dictionary (a term the graph never saw matches nothing, with
// no scan at all), and matching triples decode lazily.
func (s *GraphSource) ScanPattern(ctx context.Context, pat Pattern) (Iterator, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("federation: source %s: %w", s.SourceName, err)
	}
	d := s.Graph.Dict()
	enc, known := encodePattern(d, pat)
	if !known {
		return &idIterator{d: d}, nil
	}
	var match []dict.Triple
	for _, t := range s.Graph.AllTriples() {
		if (enc.S == dict.None || t.S == enc.S) &&
			(enc.P == dict.None || t.P == enc.P) &&
			(enc.O == dict.None || t.O == enc.O) {
			match = append(match, t)
		}
	}
	return &idIterator{d: d, ts: match}, nil
}

// Stats implements Source.
func (s *GraphSource) Stats(context.Context) (SourceStats, error) {
	return SourceStats{Triples: len(s.Graph.AllTriples())}, nil
}

// StoreSource exposes one triple store — typically a single shard of a
// subject-hash-partitioned shard.Store — as a federated source. Bound
// positions are answered by the store's own SPO/POS/OSP indexes instead
// of scan-and-filter, which is what makes in-process shards and remote
// peers interchangeable behind the mediator: the scatter-gather merge
// neither knows nor cares which kind each source is.
type StoreSource struct {
	SourceName string
	Dict       *dict.Dict
	// Store is the scan surface; *storage.Store, and so each shard of a
	// *shard.Store, satisfies it.
	Store interface {
		Len() int
		Each(pat storage.Pattern, fn func(dict.Triple) bool)
	}
}

// Name implements Source.
func (s *StoreSource) Name() string { return s.SourceName }

// ScanPattern implements Source, index-backed.
func (s *StoreSource) ScanPattern(ctx context.Context, pat Pattern) (Iterator, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("federation: source %s: %w", s.SourceName, err)
	}
	enc, known := encodePattern(s.Dict, pat)
	if !known {
		return &idIterator{d: s.Dict}, nil
	}
	var match []dict.Triple
	s.Store.Each(enc, func(t dict.Triple) bool {
		match = append(match, t)
		return true
	})
	return &idIterator{d: s.Dict, ts: match}, nil
}

// Stats implements Source.
func (s *StoreSource) Stats(context.Context) (SourceStats, error) {
	return SourceStats{Triples: s.Store.Len()}, nil
}

// encodePattern maps a pattern's bound terms onto dictionary IDs. known
// is false when a bound term is absent from the dictionary — such a
// pattern matches nothing.
func encodePattern(d *dict.Dict, pat Pattern) (storage.Pattern, bool) {
	var enc storage.Pattern
	for _, bind := range []struct {
		term *rdf.Term
		dst  *dict.ID
	}{{pat.S, &enc.S}, {pat.P, &enc.P}, {pat.O, &enc.O}} {
		if bind.term == nil {
			continue
		}
		id, ok := d.Lookup(*bind.term)
		if !ok {
			return storage.Pattern{}, false
		}
		*bind.dst = id
	}
	return enc, true
}

// HTTPSource fetches a remote refserve endpoint (see internal/httpapi).
// The remote surface exports dumps, not scans, so ScanPattern fetches
// /v1/dump and filters mediator-side; Stats reads /v1/stats.
type HTTPSource struct {
	SourceName string
	// BaseURL of the endpoint, e.g. "http://host:8080".
	BaseURL string
	// Client defaults to a client with a 30s timeout.
	Client *http.Client
}

// Name implements Source.
func (s *HTTPSource) Name() string { return s.SourceName }

// ScanPattern implements Source.
func (s *HTTPSource) ScanPattern(ctx context.Context, pat Pattern) (Iterator, error) {
	ts, err := s.dump(ctx)
	if err != nil {
		return nil, err
	}
	return &sliceIterator{ts: ts, pat: pat}, nil
}

// Stats implements Source: one /v1/stats round trip, no dump.
func (s *HTTPSource) Stats(ctx context.Context) (SourceStats, error) {
	body, err := s.get(ctx, "/v1/stats")
	if err != nil {
		return SourceStats{}, err
	}
	defer body.Close()
	var st SourceStats
	if err := json.NewDecoder(body).Decode(&st); err != nil {
		return SourceStats{}, fmt.Errorf("federation: source %s: stats: %w", s.SourceName, err)
	}
	return st, nil
}

// dump fetches the endpoint's /v1/dump: canceling ctx aborts the fetch
// (and, endpoint-side, the streaming dump).
func (s *HTTPSource) dump(ctx context.Context) ([]rdf.Triple, error) {
	body, err := s.get(ctx, "/v1/dump")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	ts, err := ntriples.ParseAll(body)
	if err != nil {
		return nil, fmt.Errorf("federation: source %s: %w", s.SourceName, err)
	}
	return ts, nil
}

// get performs one context-bound GET and returns the 200 body; every
// HTTPSource request flows through here.
func (s *HTTPSource) get(ctx context.Context, path string) (io.ReadCloser, error) {
	client := s.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.BaseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("federation: source %s: %w", s.SourceName, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("federation: source %s: %w", s.SourceName, err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("federation: source %s: status %d: %s", s.SourceName, resp.StatusCode, body)
	}
	return resp.Body, nil
}

// --- the mediator ------------------------------------------------------------

// Mediator merges sources and answers over the union.
type Mediator struct {
	sources []Source
	// PerSource records how many triples each source contributed on the
	// last BuildContext, keyed by source name.
	PerSource map[string]int
	// FetchTime records how long each source's scan took on the last
	// BuildContext, keyed by source name — the mediator-side observability
	// counterpart to the endpoint's /metrics.
	FetchTime map[string]time.Duration
}

// NewMediator returns a mediator over the sources.
func NewMediator(sources ...Source) *Mediator {
	return &Mediator{sources: sources}
}

// BuildContext fetches every source and assembles the merged graph: the
// union of explicit triples, with the union schema closed mediator-side.
// Duplicate triples across sources collapse (RDF set semantics). The fetch
// is a scatter-gather: every source scans in parallel (canceling ctx aborts
// the in-flight scans), then one gather pass dedups the union and closes
// the merged schema — the same shape the in-process executor uses across
// shards.
func (m *Mediator) BuildContext(ctx context.Context) (*graph.Graph, error) {
	if len(m.sources) == 0 {
		return nil, fmt.Errorf("federation: no sources")
	}
	seen := map[string]bool{}
	for _, src := range m.sources {
		if seen[src.Name()] {
			return nil, fmt.Errorf("federation: duplicate source name %q", src.Name())
		}
		seen[src.Name()] = true
	}
	type fetched struct {
		ts   []rdf.Triple
		took time.Duration
		err  error
	}
	res := make([]fetched, len(m.sources))
	var wg sync.WaitGroup
	for i, src := range m.sources {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			start := time.Now()
			ts, err := Collect(ctx, src, Pattern{})
			res[i] = fetched{ts: ts, took: time.Since(start), err: err}
		}(i, src)
	}
	wg.Wait()
	m.PerSource = map[string]int{}
	m.FetchTime = map[string]time.Duration{}
	var all []rdf.Triple
	for i, src := range m.sources {
		if err := res[i].err; err != nil {
			return nil, err
		}
		m.PerSource[src.Name()] = len(res[i].ts)
		m.FetchTime[src.Name()] = res[i].took
		all = append(all, res[i].ts...)
	}
	g, err := graph.FromTriples(rdf.DedupTriples(all))
	if err != nil {
		return nil, fmt.Errorf("federation: merged sources are inconsistent: %w", err)
	}
	return g, nil
}

// EngineContext builds the merged graph (see BuildContext) and returns a
// strategy engine over it — typically used with the Ref strategies, since
// Sat-style materialization cannot be pushed back into the read-only
// sources.
func (m *Mediator) EngineContext(ctx context.Context) (*engine.Engine, error) {
	g, err := m.BuildContext(ctx)
	if err != nil {
		return nil, err
	}
	return engine.New(g), nil
}
