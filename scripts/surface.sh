#!/usr/bin/env bash
# surface.sh prints the size of the repository's surface: the counts ROADMAP
# asks every PR to report before and after (flat-or-down is the default).
# Plain find/grep/wc/go doc; run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "non-test Go lines per package:"
total=0
for dir in $(find internal -type d -not -path '*/testdata*' | sort); do
	files=$(find "$dir" -maxdepth 1 -name '*.go' -not -name '*_test.go')
	[ -n "$files" ] || continue
	# shellcheck disable=SC2086
	n=$(cat $files | wc -l)
	total=$((total + n))
	printf '  %-32s %6d\n' "$dir" "$n"
done
printf '  %-32s %6d\n' "internal (all)" "$total"

echo "command-line flags (flag.<Type>( definitions under cmd/):"
printf '  %d\n' "$(grep -rhoE '\bflag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Func|Var|[A-Z][A-Za-z0-9]*Var)\(' cmd --include='*.go' | wc -l)"

# fields TYPE: exported fields of a struct type, read off `go doc`.
fields() {
	go doc "$1" | sed -n '/^type .* struct {/,/^}/p' | grep -cE '^	[A-Z][A-Za-z0-9]* ' || true
}
echo "option and configuration fields:"
printf '  %-32s %6d\n' "httpapi.Options" "$(fields ./internal/httpapi.Options)"
printf '  %-32s %6d\n' "engine.Engine (exported)" "$(fields ./internal/engine.Engine)"
printf '  %-32s %6d\n' "exec.Evaluator (exported)" "$(fields ./internal/exec.Evaluator)"
printf '  %-32s %6d\n' "durable.Options" "$(fields ./internal/durable.Options)"

# methods TYPE: the methods an interface type declares, read off `go doc`.
methods() {
	go doc "$1" | sed -n '/^type .* interface {/,/^}/p' | grep -cE '^	[A-Z][A-Za-z0-9]*\(' || true
}
echo "interface methods:"
printf '  %-32s %6d\n' "exec.Source methods" "$(methods ./internal/exec.Source)"
printf '  %-32s %6d\n' "exec.ShardedSource methods" "$(methods ./internal/exec.ShardedSource)"
printf '  %-32s %6d\n' "stats.Counter methods" "$(methods ./internal/stats.Counter)"

echo "exported identifiers (package-level + methods):"
for pkg in core cost engine exec graph httpapi query saturation storage viewcache; do
	top=$(go doc -short "./internal/$pkg" | grep -cE '^ *(func|type|const|var) ' || true)
	methods=$(go doc -all "./internal/$pkg" | grep -cE '^func \(' || true)
	printf '  %-32s %6d  (%d + %d)\n' "$pkg" $((top + methods)) "$top" "$methods"
done
printf '  %-32s %6d\n' "engine.Engine methods" "$(go doc -all ./internal/engine | grep -cE '^func \(e \*Engine\) ' || true)"
printf '  %-32s %6d\n' "storage.Store methods" "$(go doc -all ./internal/storage | grep -cE '^func \(st \*Store\) ' || true)"

# One statement of the join-order rule (cost.Pick): every hand-written copy
# of the greedy pick declares its running best this way.
echo "greedy join-order implementations (non-test):"
printf '  %d\n' "$(grep -rE 'best, bestConnected := -1, false' internal --include='*.go' --exclude='*_test.go' | wc -l)"
