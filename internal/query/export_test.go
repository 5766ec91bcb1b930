package query

// Subsumes reports whether general subsumes specific, within a fresh search
// budget.
func Subsumes(general, specific CQ) bool {
	h := hom{steps: searchBudget}
	return h.subsumes(general, specific, -1)
}
