#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in the CI workflow
# matches no test, example or fuzz target in the packages that step tests:
# a renamed or deleted test would otherwise leave its step running nothing
# and passing. `-run XXX`, the fuzz and benchmark steps' "run no test", is
# exempt.
#
#   bash .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
workflow=${1:-.github/workflows/ci.yml}
dead=0
while IFS= read -r line; do
	line=${line#"${line%%[![:space:]]*}"}
	rest=${line#*-run }
	if [[ $rest == \'* ]]; then
		rest=${rest#\'}
		pattern=${rest%%\'*}
		rest=${rest#*\'}
	else
		pattern=${rest%% *}
		rest=${rest#"$pattern"}
	fi
	[[ $pattern == XXX ]] && continue
	pkgs=()
	for word in $rest; do
		[[ $word == . || $word == ./* ]] && pkgs+=("$word")
	done
	names=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Example|Fuzz)' || true)
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "dead -run alternative '$alt' (no test in ${pkgs[*]}): $line" >&2
			dead=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$workflow")
exit $dead
