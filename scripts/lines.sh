#!/usr/bin/env bash
# The line ledger: non-test Go lines per package for the root package,
# cmd/, examples/ and internal/ (files ending in _test.go and testdata/
# trees are not counted; every other .go file is, whatever its build tags).
# Packages that no command and not the root package links — only _test.go
# files import them — are listed apart as test support. LINES.txt is this script's output; CI
# regenerates it and fails on any difference.
#
#   bash scripts/lines.sh > LINES.txt
set -euo pipefail
cd "$(dirname "$0")/.."

budget=20500
mod=$(go list -m)
linked=$(go list -deps ./cmd/... ./examples/... .)

count() { # non-test .go lines directly in one package directory
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

program="" support=""
budgeted=0 supported=0 total=0
while read -r path; do
	rel=${path#"$mod"}
	rel=${rel#/}
	dir=${rel:-.}
	n=$(count "$dir")
	total=$((total + n))
	case $dir in internal/* | cmd/*) budgeted=$((budgeted + n)) ;; esac
	line=$(printf '%7d  %s' "$n" "${rel:-$mod (root)}")
	if ! grep -qxF "$path" <<<"$linked"; then
		support+="$line"$'\n'
		supported=$((supported + n))
	else
		program+="$line"$'\n'
	fi
done < <(go list ./...)

echo "# Non-test Go lines per package (scripts/lines.sh)."
echo "# Budget: internal/ + cmd/ <= $budget non-test lines."
echo
echo "## Program"
printf '%s' "$program"
echo
echo "## Test support (imported only by _test.go files)"
printf '%s' "$support"
echo
printf '%7d  internal/ + cmd/ (budget %d, test support included)\n' "$budgeted" "$budget"
printf '%7d  test support\n' "$supported"
printf '%7d  total\n' "$total"
