// Command refserve serves a graph as an RDF endpoint over HTTP (see
// internal/httpapi for the routes):
//
//	refserve -scenario lubm -addr :8080
//	refserve -data mygraph.nt
//	refserve -scenario lubm -data-dir /var/lib/refserve
//	curl 'localhost:8080/v1/query?q=q(x)+:-+x+rdf:type+ub:Student'
//	curl localhost:8080/metrics
//
// With -max-concurrency, a cost-weighted admission gate bounds in-flight
// evaluations and sheds excess load with 429 + Retry-After (see
// internal/admission).
//
// With -data-dir, the graph is durable (see internal/durable): updates
// through POST /v1/update are write-ahead logged before acknowledgment,
// checkpoints compact the log into a columnar snapshot, and restarts
// recover snapshot + WAL tail instead of re-parsing N-Triples. The
// listener binds *before* recovery: while the snapshot loads and the WAL
// replays, /healthz answers 200 and everything else answers 503 with
// code "loading", so orchestrators see an honest not-ready instead of a
// connection refusal — and never a "ready" over a half-loaded graph.
//
// On SIGINT/SIGTERM the server drains gracefully: it stops admitting
// queries (readyz fails, queued queries reject), in-flight evaluations
// finish within the grace period, and only then is the base context
// canceled to abort stragglers at their next operator checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/datasets"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/journal"
	"repro/internal/lubm"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		scenario     = flag.String("scenario", "lubm", "built-in scenario: lubm, insee, ign, dblp")
		dataFile     = flag.String("data", "", "N-Triples/Turtle file to serve instead of a scenario")
		scale        = flag.Int("scale", 1, "LUBM scale factor")
		seed         = flag.Int64("seed", 42, "generator seed")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-query evaluation timeout")
		slowQuery    = flag.Duration("slow-query", 500*time.Millisecond, "slow-query log threshold (0 disables)")
		grace        = flag.Duration("grace", 5*time.Second, "shutdown grace period")
		pprof        = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		logJSON      = flag.Bool("log-json", true, "emit structured JSON query logs on stderr")
		viewCache    = flag.String("view-cache", "on", "fragment view cache: on or off")
		viewMB       = flag.Int("view-cache-mb", 64, "view cache byte budget in MiB")
		planCache    = flag.Int("plan-cache", 0, "plan cache capacity, in query shapes (0 = default 128)")
		maxConc      = flag.Int("max-concurrency", 0, "admission gate weight budget (0 disables admission control)")
		queueLen     = flag.Int("queue-depth", admission.DefaultQueueDepth, "admission queue depth (0 = shed immediately when full)")
		queueWait    = flag.Duration("queue-timeout", admission.DefaultQueueTimeout, "max time a query may wait in the admission queue")
		maxCost      = flag.Float64("max-cost", 0, "estimated-cost ceiling above which queries are shed (0 = no ceiling)")
		journalLog   = flag.String("journal", "", "durable workload journal path (JSONL; empty disables)")
		journalMB    = flag.Int("journal-max-mb", 64, "journal size in MiB at which the active file rotates (gzipped)")
		sloSpec      = flag.String("slo", metrics.DefaultSLO.String(), "latency SLO as <latency>:<objective>, e.g. 250ms:99.9")
		dataDir      = flag.String("data-dir", "", "durable data directory (snapshot + WAL; empty = in-memory only)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always, interval or none")
		checkpointMB = flag.Int("checkpoint-mb", 256, "WAL MiB between automatic checkpoints (0 disables)")
		shards       = flag.Int("shards", 1, "hash-partition the store by subject into N shards; a union's subject-joined members run once per shard in parallel (<2 = one shard)")
	)
	flag.Parse()

	// Bind the listener before loading anything: probes get an honest
	// 503 "loading" during recovery instead of a connection refusal, and
	// readyz flips only once the graph is complete.
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("refserve: ", err)
	}
	boot := httpapi.NewBoot()
	// sigCtx fires on SIGINT/SIGTERM; baseCtx is every request's base
	// context and outlives the signal so a drain can finish in-flight
	// evaluations before aborting the stragglers.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Handler:     boot,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(lis) }()
	log.Printf("listening on %s (recovering)…", lis.Addr())

	// The registry outlives the server object: the durable manager's
	// wal.* / recovery.* instruments register here during recovery, and
	// httpapi.NewWith adopts the same registry for /metrics.
	reg := metrics.NewRegistry()

	var (
		g        *graph.Graph
		prefixes map[string]string
		mgr      *durable.Manager
	)
	loadSource := func() (*graph.Graph, map[string]string, error) {
		switch {
		case strings.HasSuffix(*dataFile, ".snap"):
			g, err := graph.LoadSnapshot(*dataFile)
			return g, nil, err
		case *dataFile != "":
			g, err := graph.LoadFile(*dataFile)
			return g, nil, err
		case *scenario == "lubm":
			p := lubm.Default()
			p.Universities = *scale
			g, err := lubm.NewGraph(p, *seed)
			return g, map[string]string{"ub": lubm.NS}, err
		default:
			scs, err := datasets.All(datasets.Base, *seed)
			if err != nil {
				return nil, nil, err
			}
			for _, sc := range scs {
				if sc.Name == *scenario {
					return sc.Graph, sc.Prefixes, nil
				}
			}
			return nil, nil, fmt.Errorf("unknown scenario %q", *scenario)
		}
	}
	if *dataDir != "" {
		mode, err := durable.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatal("refserve: ", err)
		}
		mgr, err = durable.Open(*dataDir, durable.Options{
			SyncMode:        mode,
			CheckpointBytes: int64(*checkpointMB) << 20,
			Metrics:         reg,
		})
		if err != nil {
			log.Fatal("refserve: ", err)
		}
		recTr := trace.New(0)
		hadSnapshot := mgr.CurrentManifest().Snapshot != ""
		recStart := time.Now()
		g0, err := mgr.LoadGraph(recTr)
		if err != nil {
			log.Fatal("refserve: ", err)
		}
		eng := engine.New(g0)
		stats, err := mgr.Replay(eng, recTr)
		if err != nil {
			log.Fatal("refserve: ", err)
		}
		g = eng.Graph()
		if !hadSnapshot && stats.Records == 0 {
			// Fresh data directory: seed it from -data/-scenario and
			// checkpoint immediately, so every restart recovers from the
			// snapshot instead of re-parsing or re-generating the source.
			g, prefixes, err = loadSource()
			if err != nil {
				log.Fatal("refserve: ", err)
			}
			log.Printf("seeding fresh data dir %s (%d triples)…", *dataDir, g.DataCount())
			if err := mgr.Checkpoint(g); err != nil {
				log.Fatal("refserve: seed checkpoint: ", err)
			}
		} else {
			if *scenario == "lubm" && *dataFile == "" {
				prefixes = map[string]string{"ub": lubm.NS}
			}
			log.Printf("recovered %d triples in %s (snapshot %v, %d WAL records, torn tail %v)",
				g.DataCount(), time.Since(recStart).Round(time.Millisecond),
				hadSnapshot, stats.Records, stats.TornTail)
		}
	} else {
		if g, prefixes, err = loadSource(); err != nil {
			log.Fatal("refserve: ", err)
		}
	}

	log.Printf("loaded %d data triples, %s; warming caches…", g.DataCount(), g.Schema())
	srv := httpapi.NewWithOptions(g, prefixes, reg, httpapi.Options{Shards: *shards})
	if *shards >= 2 {
		log.Printf("sharding enabled: %d subject-hash shards", *shards)
	}
	srv.Timeout = *timeout
	switch strings.ToLower(*viewCache) {
	case "on":
		srv.Engine().EnableViewCache(viewcache.Config{MaxBytes: int64(*viewMB) << 20})
		log.Printf("view cache enabled (%d MiB)", *viewMB)
	case "off":
	default:
		log.Fatalf("refserve: bad -view-cache %q (want on or off)", *viewCache)
	}
	if *planCache > 0 {
		srv.Engine().SetPlanCacheCapacity(*planCache)
	}
	srv.SlowQueryThreshold = *slowQuery
	if *slowQuery == 0 {
		srv.SlowQueryThreshold = -1
	}
	if *logJSON {
		srv.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *pprof {
		srv.EnablePprof()
		log.Printf("pprof enabled at /debug/pprof/")
	}
	slo, err := metrics.ParseSLO(*sloSpec)
	if err != nil {
		log.Fatal("refserve: ", err)
	}
	srv.SetSLO(slo)
	var jw *journal.Writer
	if *journalLog != "" {
		jw, err = journal.New(journal.Config{
			Path:     *journalLog,
			MaxBytes: int64(*journalMB) << 20,
			Metrics:  srv.Metrics(),
		})
		if err != nil {
			log.Fatal("refserve: ", err)
		}
		srv.EnableJournal(jw)
		log.Printf("workload journal at %s (rotate at %d MiB)", *journalLog, *journalMB)
	}
	if *maxConc > 0 {
		// The flag's 0 means "no queue" (shed immediately); the library
		// reserves 0 for its default depth.
		qd := *queueLen
		if qd == 0 {
			qd = -1
		}
		srv.EnableAdmission(admission.Config{
			MaxConcurrency: *maxConc,
			QueueDepth:     qd,
			QueueTimeout:   *queueWait,
			MaxCost:        *maxCost,
		})
		log.Printf("admission control enabled (budget %d, queue %d, queue timeout %s)",
			*maxConc, *queueLen, *queueWait)
	}
	if mgr != nil {
		srv.EnableDurability(mgr)
		log.Printf("durability enabled (data dir %s, wal sync %s, checkpoint every %d MiB)",
			*dataDir, *walSync, *checkpointMB)
	}

	// Flip the boot gate: readiness and every data route now serve the
	// fully recovered graph.
	boot.Ready(srv)
	log.Printf("ready: serving on %s", lis.Addr())
	select {
	case err := <-errc:
		log.Fatal("refserve: ", err)
	case <-sigCtx.Done():
	}
	log.Printf("draining (grace %s)…", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Ordered drain: stop admitting and wait for admitted evaluations,
	// then close listeners waiting out in-flight handlers, and only then
	// cancel the base context to abort whatever exceeded the grace.
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("refserve: admission drain: %v", err)
	}
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("refserve: shutdown: %v", err)
	}
	cancelBase()
	// Durable state closes after handlers return: pending checkpoints
	// finish, then the WAL flushes its final batch and fsyncs.
	srv.WaitCheckpoints()
	if mgr != nil {
		if err := mgr.Close(); err != nil {
			log.Printf("refserve: wal close: %v", err)
		}
	}
	// The journal closes last: handlers have returned, so the drain
	// flushes every queued entry to disk before exit.
	if err := jw.Close(); err != nil {
		log.Printf("refserve: journal: %v", err)
	}
}
