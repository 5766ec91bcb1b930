// University: the paper's Example 1 (§4) end to end. Generates a LUBM
// graph, builds the 6-atom query whose UCQ reformulation explodes to
// hundreds of thousands of CQs, and compares the fixed SCQ strategy, the
// paper's hand-picked cover q” and the cost-based GCov cover.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/lubm"
)

func main() {
	fmt.Println("generating LUBM(1)…")
	db, err := repro.OpenLUBM(1, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d data triples, %s\n", db.TripleCount(), db.SchemaSummary())

	// Find a degree-granting university that yields answers (the paper
	// uses http://www.Univ532.edu at its 100M scale).
	univ := lubm.PickExampleOneUniversity(db.Engine().Graph())
	if univ == "" {
		log.Fatal("no university yields Example 1 answers; try another seed")
	}
	q, err := lubm.ExampleOne(db.Engine().Graph().Dict(), univ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nExample 1 against %s:\n  %s\n\n", univ, lubm.ExampleOneText(univ))

	type attempt struct {
		name string
		opts repro.Options
	}
	attempts := []attempt{
		{"Ref-SCQ (fixed reformulation of [15])", repro.Options{Strategy: repro.RefSCQ}},
		{"Ref-JUCQ with the paper's cover q''", repro.Options{
			Strategy: repro.RefJUCQ,
			Cover:    [][]int{{0, 2}, {2, 4}, {1, 3}, {3, 5}},
		}},
		{"Ref-GCov (cost-based cover selection)", repro.Options{Strategy: repro.RefGCov}},
		{"Sat (saturate first, then evaluate)", repro.Options{Strategy: repro.Sat}},
		{"Ref-UCQ (fixed CQ-to-UCQ of [9])", repro.Options{Strategy: repro.RefUCQ, Timeout: 2 * time.Minute}},
	}
	var baseline time.Duration
	for _, a := range attempts {
		res, err := db.AnswerCQContext(context.Background(), q, a.opts)
		if err != nil {
			fmt.Printf("%-40s FAILED: %v\n", a.name, err)
			continue
		}
		line := fmt.Sprintf("%-40s %4d answers, %d CQs, eval %v",
			a.name, res.Len(), res.Meta.ReformulationCQs, res.Meta.EvalTime.Round(time.Microsecond))
		if a.opts.Strategy == repro.RefSCQ {
			baseline = res.Meta.EvalTime
		} else if baseline > 0 && res.Meta.EvalTime > 0 {
			ratio := float64(baseline) / float64(res.Meta.EvalTime)
			if ratio >= 1 {
				line += fmt.Sprintf("  (%.0fx faster than SCQ)", ratio)
			} else {
				line += fmt.Sprintf("  (%.0fx slower than SCQ)", 1/ratio)
			}
		}
		if res.Meta.Cover != "" && a.opts.Strategy == repro.RefGCov {
			line += "  cover " + res.Meta.Cover
		}
		fmt.Println(line)
	}
	fmt.Println("\nThe paper reports the same shape at 100M triples: the UCQ (318,096 CQs)")
	fmt.Println("could not even be parsed, the SCQ took 229s, and the best JUCQ 524ms.")
}
