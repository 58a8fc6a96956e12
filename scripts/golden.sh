#!/usr/bin/env bash
# Golden-output check: `hermes-bench -exp all -seed 1` must match
# docs/RESULTS.txt byte for byte once the host-dependent tokens are masked.
# Those are exactly: every `wall <t>s` (section headers, scale cell lines),
# the scale sweep's derived `ratio <r>x`, and table5's measured microbenchmark
# numbers (the Light/Medium/Heavy percentage rows and the `measured ns/op:`
# line). Everything else is a pure function of the seed, so a refactor that
# claims "steering decisions unchanged" proves it by passing this script.
#
# Both sides go through the same mask, so the checked-in file stays a plain,
# readable rendering. To accept an intended change:
#   go run ./cmd/hermes-bench -exp all -seed 1 > docs/RESULTS.txt
set -euo pipefail

cd "$(dirname "$0")/.."

normalise() {
  sed -E \
    -e 's/wall [0-9.]+s/wall Xs/g' \
    -e 's/ratio [0-9.]+x/ratio Xx/g' \
    -e '/^### table5 /,/^### /{
          /^(Light|Medium|Heavy) /s/[0-9.]+% */X% /g
          s/^(measured ns\/op:).*/\1 X/
        }'
}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go run ./cmd/hermes-bench -exp all -seed 1 | normalise > "$WORK/got.txt"
normalise < docs/RESULTS.txt > "$WORK/want.txt"

if diff -u "$WORK/want.txt" "$WORK/got.txt"; then
  echo "golden: -exp all -seed 1 matches docs/RESULTS.txt"
else
  echo "golden: FAIL: -exp all -seed 1 differs from docs/RESULTS.txt (see diff above)" >&2
  exit 1
fi
