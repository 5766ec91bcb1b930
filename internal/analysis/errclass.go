package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Errclass keeps HTTP error emission in package httpapi funneled
// through the /v1 outcome mapper, so the error envelope, the journal
// outcome, the SLO good/bad split and the slowlog can never disagree
// about what a failure *was*. Concretely:
//
//  1. no http.Error: it bypasses both the JSON envelope and
//     classification — use s.writeError / s.writeAnswerError;
//  2. the error-envelope literals (v1Error, v1ErrorBody) are
//     constructed only inside writeError /
//     writeAnswerError — anywhere else is a hand-rolled envelope that
//     classify() never saw;
//  3. journal.Outcome* constants are referenced only inside outcomeFor
//     — the single point where classification maps onto the journal's
//     closed outcome set;
//  4. writeJSON with a constant status >= 400 outside writeError /
//     writeAnswerError emits an error the classifier never produced.
//
// Suppress with `//reflint:errclass <reason>` only for responses that
// are deliberately outside the error model (none today).
var Errclass = &Analyzer{
	Name: "errclass",
	Doc:  "errors reaching httpapi flow through the /v1 outcome mapper (writeError/writeAnswerError/classify/outcomeFor)",
	Run:  runErrclass,
}

// errclassPackages limits the check to the HTTP surface.
var errclassPackages = map[string]bool{"httpapi": true}

// errclassMapperFuncs may construct envelopes and emit error statuses.
var errclassMapperFuncs = map[string]bool{
	"writeError":       true,
	"writeAnswerError": true,
	"writeGoneError":   true,
	"classify":         true,
}

// errclassEnvelopeTypes are the error-envelope literals of rule 2.
var errclassEnvelopeTypes = map[string]bool{
	"v1Error":     true,
	"v1ErrorBody": true,
}

func runErrclass(pass *Pass) error {
	if !errclassPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			fn := enclosingFunc(f, n.Pos())
			inMapper := fn != nil && errclassMapperFuncs[fn.Name.Name]
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if id, isIdent := sel.X.(*ast.Ident); isIdent && id.Name == "http" && sel.Sel.Name == "Error" {
						errclassReport(pass, f, n.Pos(), "http.Error bypasses the /v1 error envelope and classification: use s.writeError (or s.writeAnswerError for answering errors)")
						break
					}
				}
				if isIdentCall(n, "writeJSON") && !inMapper && len(n.Args) >= 2 {
					if status, ok := constantInt(pass, n.Args[1]); ok && status >= 400 {
						errclassReport(pass, f, n.Pos(), "writeJSON with error status %d outside writeError/writeAnswerError: the classifier never produced this error — route it through s.writeError so journal/SLO classification matches the wire", status)
					}
				}
			case *ast.CompositeLit:
				if inMapper {
					break
				}
				name := ""
				switch t := n.Type.(type) {
				case *ast.Ident:
					name = t.Name
				case *ast.SelectorExpr:
					name = t.Sel.Name
				}
				if errclassEnvelopeTypes[name] {
					errclassReport(pass, f, n.Pos(), "%s literal outside writeError/writeAnswerError hand-rolls the error envelope: use s.writeError so the code/message pair comes from classify()", name)
				}
			case *ast.SelectorExpr:
				// Rule 3: journal.Outcome* references outside outcomeFor.
				if fn != nil && fn.Name.Name == "outcomeFor" {
					break
				}
				if id, isIdent := n.X.(*ast.Ident); isIdent && isPkgRef(pass, id, "repro/internal/journal") && strings.HasPrefix(n.Sel.Name, "Outcome") {
					errclassReport(pass, f, n.Pos(), "journal.%s referenced outside outcomeFor: outcome mapping lives in one place so the journal and the /v1 error code can never disagree", n.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

func errclassReport(pass *Pass, f *ast.File, pos token.Pos, format string, args ...any) {
	fn := enclosingFunc(f, pos)
	if pass.suppressed("errclass", pos, fn) {
		return
	}
	pass.Reportf(pos, format, args...)
}

func isIdentCall(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name
}

// isPkgRef reports whether id names an imported package whose path is —
// or ends with — path (testdata mirrors import by the last element).
func isPkgRef(pass *Pass, id *ast.Ident, path string) bool {
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	got := pkgName.Imported().Path()
	return got == path || strings.HasSuffix(got, "/"+lastSegment(path))
}

func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func constantInt(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
