package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dict"
)

// FormatArg renders one argument, decoding constants against d; a shape's
// parameter renders as $1, $2, ….
func FormatArg(d *dict.Dict, a Arg) string {
	if a.IsVar() {
		return a.Var
	}
	if slot, ok := a.Slot(); ok {
		return "$" + strconv.Itoa(slot+1)
	}
	return d.Decode(a.ID).String()
}

// FormatAtom renders one atom as "s p o".
func FormatAtom(d *dict.Dict, t Atom) string {
	return FormatArg(d, t.S) + " " + FormatArg(d, t.P) + " " + FormatArg(d, t.O)
}

// FormatCQ renders a CQ in the paper's notation: q(head) :- atom, atom, ….
func FormatCQ(d *dict.Dict, q CQ) string {
	var sb strings.Builder
	sb.WriteString("q(")
	for i, h := range q.Head {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(FormatArg(d, h))
	}
	sb.WriteString(") :- ")
	for i, t := range q.Atoms {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(FormatAtom(d, t))
	}
	return sb.String()
}

// FormatUCQ renders a UCQ, one CQ per line, capped at limit CQs (0 = all).
func FormatUCQ(d *dict.Dict, u UCQ, limit int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "UCQ over (%s), %d CQs:\n", strings.Join(u.HeadNames, ", "), len(u.CQs))
	for i, q := range u.CQs {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&sb, "  … %d more\n", len(u.CQs)-limit)
			break
		}
		sb.WriteString("  ∪ ")
		sb.WriteString(FormatCQ(d, q))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatJUCQ renders a JUCQ: its cover and per-fragment UCQ sizes.
func FormatJUCQ(d *dict.Dict, j JUCQ) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "JUCQ over (%s), cover %s:\n", strings.Join(j.HeadNames, ", "), j.Cover)
	for i, f := range j.Fragments {
		fmt.Fprintf(&sb, "  fragment %d %s: %s, |UCQ|=%d\n",
			i+1, Cover{f.AtomIndexes}.String(), FormatCQ(d, f.CQ), len(f.UCQ.CQs))
	}
	return sb.String()
}
