#!/usr/bin/env bash
# Prints the stdout of every example program and of jstream-sim in the
# framework's two modes and over a deployment (-sites), each under an
# "== NAME ==" line. CI diffs it
# against the checked-in recording, byte for byte:
#
#   scripts/examples_output.sh | diff results/examples_output.txt -
#
# Every program is deterministic and runs in well under a second.
set -euo pipefail
cd "$(dirname "$0")/.."
for dir in examples/*/; do
	name=${dir%/}
	echo "== $name =="
	go run "./$name"
done
fleet="-users 24 -size 100 -capacity 8000"
for args in "-sched rtma" "-sched ema" "-sched ema -adaptive" "-sched ema -v 0.3" \
	"-sites 3 $fleet -sched ema" \
	"-sites 2 -policy leastloaded -offsets=-0,-8 $fleet -sched ema" \
	"-sites 2 -policy roundrobin -offsets=-0,-8 $fleet -sched rtma -budget 800"; do
	echo "== jstream-sim $args =="
	# shellcheck disable=SC2086 # args is a list of flags
	go run ./cmd/jstream-sim $args
done
