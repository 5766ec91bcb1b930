package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// newShardedServer builds a test server whose explicit-data store is
// hash-partitioned into n shards.
func newShardedServer(t *testing.T, n int) (*httptest.Server, *Server) {
	t.Helper()
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(g, map[string]string{"ex": "http://example.org/"},
		metrics.NewRegistry(), Options{Shards: n})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

type shardsResponse struct {
	Shards   int               `json:"shards"`
	Skew     float64           `json:"skew"`
	Topology []shard.ShardInfo `json:"topology"`
}

// TestAdminShardsEndpoint pins GET /v1/admin/shards: the topology lists
// every shard, the per-shard triple counts sum to the store, and the
// unsharded server reports its one shard in the same shape.
func TestAdminShardsEndpoint(t *testing.T) {
	ts, srv := newShardedServer(t, 4)
	var resp shardsResponse
	if code := getJSON(t, ts.URL+"/v1/admin/shards", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Shards != 4 || len(resp.Topology) != 4 {
		t.Fatalf("shards = %d, topology %d entries, want 4", resp.Shards, len(resp.Topology))
	}
	if resp.Skew < 1.0 {
		t.Fatalf("skew = %v, want >= 1", resp.Skew)
	}
	total := 0
	for _, info := range resp.Topology {
		total += info.Triples
	}
	if want := srv.Engine().Store().Len(); total != want {
		t.Fatalf("topology triples sum to %d, store has %d", total, want)
	}

	// The stats endpoint carries a compact shards section.
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	sec, ok := stats["shards"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no shards section: %v", stats["shards"])
	}
	if sec["count"].(float64) != 4 {
		t.Fatalf("stats shards count = %v, want 4", sec["count"])
	}

	// Unsharded server: same shape, one shard.
	tsMono := newTestServer(t)
	var mono shardsResponse
	if code := getJSON(t, tsMono.URL+"/v1/admin/shards", &mono); code != http.StatusOK {
		t.Fatalf("unsharded status %d", code)
	}
	if mono.Shards != 1 || len(mono.Topology) != 1 || mono.Skew != 1.0 {
		t.Fatalf("unsharded topology: %+v", mono)
	}
}

// TestShardedConcurrentQueriesDuringSchemaUpdate hammers a sharded
// server with scatter-gather queries while TBox updates rebuild the
// dictionary and publish new stores beside them. Run under -race: every
// query fans out across shard goroutines, and no query takes a lock
// against the updates. Each request parses, answers and decodes with the
// one version it loaded, so a re-encoded dictionary never meets the store
// of another version.
func TestShardedConcurrentQueriesDuringSchemaUpdate(t *testing.T) {
	ts, _ := newShardedServer(t, 4)
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Publication`)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var resp QueryResponse
				code := getJSON(t, ts.URL+"/v1/query?q="+q, &resp)
				if code != http.StatusOK {
					t.Errorf("query status %d", code)
					return
				}
				if resp.Total < 1 {
					t.Errorf("query returned %d rows, want >= 1", resp.Total)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var resp UpdateResponse
				code := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
					SchemaAdd: fmt.Sprintf(
						"<http://example.org/C%d_%d> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/Publication> .",
						w, i),
				}, &resp)
				if code != http.StatusOK || resp.SchemaAdded != 1 {
					t.Errorf("update status %d: %+v", code, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// After the dust settles the new subclasses reformulate: doi1 is a
	// Book ⊑ Publication, and every grafted class is empty, so the
	// Publication query still answers exactly one row.
	var resp QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q="+q+"&strategy=ref-ucq", &resp); code != http.StatusOK {
		t.Fatalf("final query status %d", code)
	}
	if resp.Total != 1 {
		t.Fatalf("final query: %d rows, want 1", resp.Total)
	}
}

// TestReadersShareDerivedStateAfterUpdate is the regression test for a
// data race among readers: an update leaves the published version without
// store, shards or statistics, and /v1/stats and /v1/admin/shards once
// rebuilt them into the shared engine's fields — racing each other and
// every query's engine copy. Now the first reader of any kind builds them
// once, inside the version. Run under -race: one update, then eight
// concurrent readers of each kind, sharded and not.
func TestReadersShareDerivedStateAfterUpdate(t *testing.T) {
	for _, shards := range []int{0, 4} {
		_, srv := newShardedServer(t, shards)
		serve := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}
		update := `{"insert":"<http://example.org/doi2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> ."}`
		if rec := serve(http.MethodPost, "/v1/update", update); rec.Code != http.StatusOK {
			t.Fatalf("shards=%d: update status %d: %s", shards, rec.Code, rec.Body)
		}
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, path := range []string{"/v1/stats", "/v1/admin/shards"} {
					if rec := serve(http.MethodGet, path, ""); rec.Code != http.StatusOK {
						t.Errorf("shards=%d: GET %s status %d", shards, path, rec.Code)
					}
				}
				rec := serve(http.MethodPost, "/v1/query", `{"query":"q(x) :- x rdf:type ex:Publication"}`)
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Total != 2 {
					t.Errorf("shards=%d: query status %d, total %d (err %v), want 2 Publications", shards, rec.Code, resp.Total, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestShardedCheckpointRecoversAtAnyShardCount: the disk has one layout
// whatever the in-memory shard count. A server checkpointed at 4 shards,
// with a WAL tail after the checkpoint, recovers at 1 and at 4 shards to
// byte-identical /v1/query answers for every complete strategy.
func TestShardedCheckpointRecoversAtAnyShardCount(t *testing.T) {
	const rdfs = "http://www.w3.org/2000/01/rdf-schema#"
	var data strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&data, "<http://example.org/doc%d> <http://example.org/writtenBy> <http://example.org/auth%d> .\n", i, i%7)
		if i%2 == 0 {
			fmt.Fprintf(&data, "<http://example.org/doc%d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .\n", i)
		}
	}
	seed := UpdateRequest{
		SchemaAdd: "<http://example.org/Book> <" + rdfs + "subClassOf> <http://example.org/Publication> .\n" +
			"<http://example.org/writtenBy> <" + rdfs + "subPropertyOf> <http://example.org/hasAuthor> .\n" +
			"<http://example.org/writtenBy> <" + rdfs + "domain> <http://example.org/Book> .\n",
		Insert: data.String(),
	}
	tail := UpdateRequest{Insert: "<http://example.org/doc99> <http://example.org/writtenBy> <http://example.org/auth1> .\n"}
	const q = `q(x, y) :- x rdf:type ex:Publication, x ex:hasAuthor y`
	reqs := []QueryRequest{{Query: q, Strategy: "ref-jucq", Cover: [][]int{{0}, {1}}}}
	for _, s := range []string{"sat", "ref-ucq", "ref-scq", "ref-gcov", "ref-range", "datalog"} {
		reqs = append(reqs, QueryRequest{Query: q, Strategy: s})
	}
	answers := func(url string) []string {
		out := make([]string, len(reqs))
		for i, req := range reqs {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			hr, err := http.NewRequest(http.MethodPost, url+"/v1/query", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			hr.Header.Set("Accept", sparqlResultsMIME)
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d (%v): %s", req.Strategy, resp.StatusCode, err, raw)
			}
			out[i] = string(raw)
		}
		return out
	}

	dir := t.TempDir()
	ts, mgr := newDurableServer(t, dir, 4)
	var ur UpdateResponse
	if code := postJSON(t, ts.URL+"/v1/update", seed, &ur); code != http.StatusOK {
		t.Fatalf("seed update: status %d", code)
	}
	var ck map[string]string
	if code := postJSON(t, ts.URL+"/v1/admin/checkpoint", struct{}{}, &ck); code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/update", tail, &ur); code != http.StatusOK {
		t.Fatalf("tail update: status %d", code)
	}
	want := answers(ts.URL)
	if !strings.Contains(want[0], "doc99") {
		t.Fatalf("live answer lacks the tail insert: %s", want[0])
	}
	ts.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4} {
		ts, mgr := newDurableServer(t, dir, shards)
		got := answers(ts.URL)
		for i := range reqs {
			if got[i] != want[i] {
				t.Fatalf("shards=%d %s: recovered answer differs:\n%s\nwant\n%s", shards, reqs[i].Strategy, got[i], want[i])
			}
		}
		ts.Close()
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
