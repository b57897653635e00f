#!/usr/bin/env bash
# Prints the non-test Go lines (wc -l) of each package of the root module
# and their total, the counts ROADMAP.md quotes. benchmark/ is its own
# module and is left out; only files git tracks are counted.
#
#   scripts/loc.sh        aligned text
#   scripts/loc.sh -md    a Markdown table (CI appends it to the job summary)
set -euo pipefail
cd "$(dirname "$0")/.."
md=0
if [ "${1:-}" = -md ]; then md=1; fi

git ls-files -z -- '*.go' ':!:benchmark/**' ':!:*_test.go' |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		lines[dir] += $1
	}
	END { for (dir in lines) print dir, lines[dir] }' |
	sort |
	awk -v md="$md" '
		function row(name, count) {
			if (md) printf "| `%s` | %d |\n", name, count
			else printf "%-28s %6d\n", name, count
		}
		NR == 1 && md { print "| package | non-test Go lines |"; print "|---|---:|" }
		{ row($1, $2); total += $2 }
		END { row("total", total) }'
