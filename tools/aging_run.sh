#!/usr/bin/env bash
# Kill-and-resume proof for durable checkpoints (DESIGN.md §13).
#
# Runs the aging campaign three ways and proves the crash-safety claim:
#   1. an unkilled reference run writing BENCH_aging_campaign.json;
#   2. the same campaign SIGKILLed mid-segment (--die-at-day, no cleanup,
#      exit 137), leaving only the durable checkpoints behind;
#   3. a bare re-invocation that must auto-resume from the newest checkpoint
#      and finish.
# The resumed run's JSON must be byte-identical to the reference's (cmp): the
# report holds simulation state only.
#
# Usage: tools/aging_run.sh [build-dir] [days] [checkpoint-every] [die-at-day]
# Defaults: build 90 5 47 — ninety simulated days of the F2 fault ladder,
# checkpoints every 5 days, killed mid-segment at day 47 (a day with no
# checkpoint of its own, so the resume replays days 46-47 from day 45's).

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
DAYS="${2:-90}"
EVERY="${3:-5}"
DIE_AT="${4:-47}"
BENCH="./$BUILD_DIR/bench/bench_aging_campaign"

if [[ ! -x "$BENCH" ]]; then
  echo "aging_run: $BENCH not built (cmake --build $BUILD_DIR --target bench_aging_campaign)" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/aging_run.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/ref" "$WORK/crash"

echo "aging_run: reference run ($DAYS days, checkpoint every $EVERY)"
(cd "$WORK/ref" && MRMSIM_BENCH_OUT=. "$OLDPWD/$BUILD_DIR/bench/bench_aging_campaign" \
  --days="$DAYS" --checkpoint-every="$EVERY" --checkpoint-dir=.)

echo "aging_run: crash run (SIGKILL after day $DIE_AT)"
set +e
(cd "$WORK/crash" && MRMSIM_BENCH_OUT=. "$OLDPWD/$BUILD_DIR/bench/bench_aging_campaign" \
  --days="$DAYS" --checkpoint-every="$EVERY" --checkpoint-dir=. --die-at-day="$DIE_AT")
STATUS=$?
set -e
if [[ "$STATUS" -ne 137 ]]; then
  echo "aging_run: FAIL — crash run exited $STATUS, expected 137 (SIGKILL)" >&2
  exit 1
fi
if [[ -e "$WORK/crash/BENCH_aging_campaign.json" ]]; then
  echo "aging_run: FAIL — killed run left a JSON report behind" >&2
  exit 1
fi

echo "aging_run: resume run"
(cd "$WORK/crash" && MRMSIM_BENCH_OUT=. "$OLDPWD/$BUILD_DIR/bench/bench_aging_campaign" \
  --days="$DAYS" --checkpoint-every="$EVERY" --checkpoint-dir=.)

if ! cmp "$WORK/ref/BENCH_aging_campaign.json" "$WORK/crash/BENCH_aging_campaign.json"; then
  echo "aging_run: FAIL — resumed campaign diverged from the unkilled reference" >&2
  exit 1
fi
echo "aging_run: PASS — killed+resumed campaign is bit-identical to the reference"
