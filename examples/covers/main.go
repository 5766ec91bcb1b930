// Covers: the demo's interactive dimension (§5 step 2) — answer the same
// query through user-chosen covers and watch evaluation cost move across
// the JUCQ space, then let GCov pick. Uses the DBLP-like scenario.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/query"
)

func main() {
	sc, err := datasets.DBLP(datasets.Base, 7)
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.New(sc.Graph)
	fmt.Printf("DBLP-like scenario: %d data triples, %s\n\n", sc.Graph.DataCount(), sc.Graph.Schema())

	// Citations among publications of the same author: three atoms, so
	// the cover space is small enough to enumerate interesting points.
	q, err := query.ParseRuleWithPrefixes(sc.Graph.Dict(), sc.Prefixes,
		`q(p, q2) :- p dblp:cites q2, p dblp:creator a, q2 dblp:creator a`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\n\n", query.FormatCQ(sc.Graph.Dict(), q))

	covers := []query.Cover{
		{{0}, {1}, {2}},  // SCQ: every atom alone
		{{0, 1}, {2}},    // group the join on p
		{{0, 2}, {1}},    // group the join on q2
		{{0, 1, 2}},      // single block: the UCQ
		{{0, 1}, {0, 2}}, // overlapping fragments (atom 0 in both)
	}
	for _, c := range covers {
		ans, err := eng.AnswerWithCoverContext(context.Background(), q, c)
		if err != nil {
			fmt.Printf("%-24v FAILED: %v\n", c, err)
			continue
		}
		fmt.Printf("%-24v %4d answers, %3d CQs, est. cost %8.0f, eval %v\n",
			c, ans.Rows.Len(), ans.ReformulationCQs, ans.EstimatedCost,
			ans.EvalTime.Round(time.Microsecond))
	}

	ans, err := eng.AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGCov picked %v (est. cost %.0f) after exploring %d covers; eval %v\n",
		ans.Cover, ans.EstimatedCost, len(ans.Explored), ans.EvalTime.Round(time.Microsecond))
	_ = repro.RefGCov // the public API mirrors everything shown here
}
