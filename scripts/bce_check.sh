#!/usr/bin/env bash
# bce_check.sh — fail if a bounds check reappears in a guarded kernel file.
#
# The hot column kernels are written so the compiler's prove pass
# eliminates every per-element bounds check. That property is easy to
# lose silently: an innocent-looking refactor (a slice that becomes a
# phi node, a guard the prover can't chain) reintroduces a check and
# costs a branch per element in the hottest loops. This script builds
# the kernel packages with `-d=ssa/check_bce` and fails if any guarded
# file reports a per-element `Found IsInBounds`.
#
# Only `Found IsInBounds` (anchored) counts: `Found IsSliceInBounds` is
# the once-per-block/round reslice header the kernels deliberately keep,
# and a bare substring grep for IsInBounds would also match it.
set -euo pipefail
cd "$(dirname "$0")/.."

# Files under the zero-per-element-check contract. Gather paths with
# data-dependent indices live in sibling files on purpose — they are
# inherently bounds-checked and must not be added here.
GUARDED='internal/(cell/kernels|cell/linkfill_kernels|radio/link|sched/ema_kernel|sched/rtma_kernel|signal/stateless_kernel|rng/ziggurat)\.go'

out=$(go build -gcflags='-d=ssa/check_bce' ./internal/cell/ ./internal/radio/ ./internal/sched/ ./internal/signal/ ./internal/rng/ 2>&1 || true)

bad=$(printf '%s\n' "$out" | grep -E "${GUARDED}.*Found IsInBounds\$" || true)
if [[ -n "$bad" ]]; then
    echo "bce-check: per-element bounds checks reappeared in guarded kernels:" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi

# Sanity: the build must have produced check_bce output at all, or a
# flag/typo change could turn this gate into a silent no-op.
if ! printf '%s\n' "$out" | grep -q 'Found Is.*InBounds$'; then
    echo "bce-check: no check_bce diagnostics seen — gate is not observing the build" >&2
    printf '%s\n' "$out" >&2
    exit 1
fi

echo "bce-check: guarded kernels are free of per-element bounds checks"
