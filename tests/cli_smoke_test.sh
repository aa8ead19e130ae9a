#!/bin/bash
# End-to-end smoke test of the roicl CLI: generate -> train -> predict ->
# evaluate -> allocate, through pipeline artifacts. Run by ctest with the
# build dir as argument.
set -euo pipefail
BUILD_DIR="$1"
WORK=$(mktemp -d)
trap "rm -rf $WORK" EXIT
CLI="$BUILD_DIR/tools/roicl"

$CLI generate --dataset criteo --n 2000 --seed 1 --out $WORK/train.csv
$CLI generate --dataset criteo --n 600 --seed 2 --out $WORK/calib.csv
$CLI generate --dataset criteo --n 800 --seed 3 --out $WORK/test.csv
$CLI train --method rdrp --train $WORK/train.csv --calib $WORK/calib.csv \
    --epochs 10 --restarts 1 --save-pipeline $WORK/rdrp.pipeline
$CLI predict --pipeline $WORK/rdrp.pipeline \
    --data $WORK/test.csv --out $WORK/scores.csv
[ "$(head -1 $WORK/scores.csv)" = "roi,interval_lo,interval_hi" ]
[ "$(wc -l < $WORK/scores.csv)" -eq 801 ]
$CLI evaluate --pipeline $WORK/rdrp.pipeline \
    --data $WORK/test.csv | grep -q "AUCC"
$CLI allocate --pipeline $WORK/rdrp.pipeline \
    --data $WORK/test.csv --budget-frac 0.2 | grep -q "incr. revenue"
# drp path too
$CLI train --method drp --train $WORK/train.csv --epochs 5 --restarts 1 \
    --save-pipeline $WORK/drp.pipeline
$CLI evaluate --pipeline $WORK/drp.pipeline \
    --data $WORK/test.csv | grep -q "AUCC"
# error paths return non-zero
if $CLI train --method nonsense --train $WORK/train.csv \
    --save-pipeline $WORK/x; then
  echo "expected failure for bad method"; exit 1
fi
if $CLI evaluate --pipeline /nonexistent --data $WORK/test.csv; then
  echo "expected failure for missing pipeline"; exit 1
fi

# Flag hardening: misspelled and out-of-range flags must be rejected up
# front (exit 2) with a one-line error naming the offender — not parsed
# into silent defaults.
check_rejects() {
  local needle="$1"; shift
  local rc=0
  "$@" 2>$WORK/err.txt || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit 2 from: $*, got $rc"; exit 1
  fi
  grep -qF -- "$needle" $WORK/err.txt \
    || { echo "missing '$needle' in error for: $*"; cat $WORK/err.txt; exit 1; }
}
check_rejects "unknown flag --aplha" \
  $CLI train --method drp --train $WORK/train.csv --aplha 0.1 \
      --save-pipeline $WORK/x
check_rejects "unknown flag --shifted" \
  $CLI evaluate --pipeline $WORK/rdrp.pipeline \
      --data $WORK/test.csv --shifted
check_rejects "--alpha must be in (0, 1)" \
  $CLI train --method rdrp --train $WORK/train.csv --calib $WORK/calib.csv \
      --alpha 1.5 --save-pipeline $WORK/x
check_rejects "--alpha must be in (0, 1)" \
  $CLI train --method rdrp --train $WORK/train.csv --calib $WORK/calib.csv \
      --alpha abc --save-pipeline $WORK/x
check_rejects "--batch-size must be positive" \
  $CLI predict --pipeline $WORK/rdrp.pipeline \
      --data $WORK/test.csv --batch-size 0 --out $WORK/x.csv
check_rejects "--threads must be >= 0" \
  $CLI predict --pipeline $WORK/rdrp.pipeline \
      --data $WORK/test.csv --threads -1 --out $WORK/x.csv
# The raw-model-blob spellings are gone: one artifact, one flag each.
check_rejects "unknown flag --model" \
  $CLI train --model rdrp --train $WORK/train.csv --save-pipeline $WORK/x
check_rejects "unknown flag --out" \
  $CLI train --method rdrp --train $WORK/train.csv --out $WORK/x
check_rejects "unknown flag --model-type" \
  $CLI evaluate --model-type rdrp --pipeline $WORK/rdrp.pipeline \
      --data $WORK/test.csv
check_rejects "unknown flag --model" \
  $CLI allocate --model $WORK/rdrp.pipeline --data $WORK/test.csv
# Service knobs that would stall the dispatcher or reject every request
# exit 2 naming the flag. SIGKILL after 60 s turns a hang into a failure
# (exit 137) instead of a stuck ctest.
check_rejects "--max-batch must be >= 1" \
  timeout -s KILL 60 $CLI serve --pipeline $WORK/rdrp.pipeline \
      --data $WORK/test.csv --out $WORK/x.csv --max-batch 0
check_rejects "--max-queue must be >= 1" \
  timeout -s KILL 60 $CLI serve --pipeline $WORK/rdrp.pipeline \
      --data $WORK/test.csv --out $WORK/x.csv --max-queue 0
check_rejects "--max-batch must be >= 1" \
  timeout -s KILL 60 $CLI load-replay --pipeline $WORK/rdrp.pipeline \
      --calib $WORK/calib.csv --data $WORK/test.csv --max-batch 0
# A malformed --arm-budgets entry must fail before any training instead
# of silently running that arm unbounded.
check_rejects "--arm-budgets entry 'abc'" \
  $CLI campaign --arm-budgets 0.2,abc,0.05
check_rejects "--arm-budgets entry 'nan'" \
  $CLI campaign --arm-budgets 0.2,nan,0.05
check_rejects "--arm-budgets entry ''" \
  $CLI campaign --arm-budgets 0.2,,0.05
# Hyperparameter flags parse whole and run the artifact loader's range
# table: each of these used to abort (exit 134) inside training or
# scoring, or, for "12x", silently run as 12.
rdrp_train=($CLI train --method rdrp --train $WORK/train.csv
            --calib $WORK/calib.csv --save-pipeline $WORK/x.pipeline)
check_rejects "--mc-passes must be an integer" "${rdrp_train[@]}" \
  --mc-passes abc
check_rejects "--mc-passes must be >= 2" "${rdrp_train[@]}" --mc-passes 1
check_rejects "--dropout must be in [0, 1)" "${rdrp_train[@]}" --dropout 1
check_rejects "--dropout must be in [0, 1)" "${rdrp_train[@]}" --dropout 1.5
check_rejects "--epochs must be an integer" "${rdrp_train[@]}" --epochs abc
check_rejects "--epochs must be >= 1" "${rdrp_train[@]}" --epochs -1
check_rejects "--lr must be a number" "${rdrp_train[@]}" --lr abc
check_rejects "--batch-size must be an integer" "${rdrp_train[@]}" \
  --batch-size 12x
check_rejects "--mc-passes must be >= 2" $CLI campaign --mc-passes 1
# Negative hidden widths and zero restarts used to be replaced silently
# ("auto" and 1).
check_rejects "--hidden must be >= 0" "${rdrp_train[@]}" --hidden -3
check_rejects "--restarts must be >= 1" "${rdrp_train[@]}" --restarts 0
check_rejects "--n must be positive" \
  $CLI generate --n 0 --out $WORK/x.csv
# Monitor knobs that used to abort the monitor's construction (exit 134),
# or, for a NaN drift threshold, to disable detection silently, exit 2
# naming the flag; a negative count no longer wraps.
monitor_replay=($CLI monitor-replay --pipeline $WORK/rdrp.pipeline
                --calib $WORK/calib.csv --data $WORK/test.csv)
check_rejects "--drift-bins must be >= 2" "${monitor_replay[@]}" \
  --drift-bins 1
check_rejects "--psi-threshold must be finite and >= 0" \
  "${monitor_replay[@]}" --psi-threshold nan
check_rejects "--coverage-window must be >= 1" "${monitor_replay[@]}" \
  --coverage-window 0
check_rejects "--coverage-window must be >= 0" "${monitor_replay[@]}" \
  --coverage-window -1
check_rejects "--coverage-slack must be >= 0" "${monitor_replay[@]}" \
  --coverage-slack -5
check_rejects "--feedback-window must be >= 1" "${monitor_replay[@]}" \
  --feedback-window 0
check_rejects "--aci-gamma must be >= 0" "${monitor_replay[@]}" \
  --aci-gamma -1
check_rejects "--window-rows must be >= 0" \
  $CLI load-replay --pipeline $WORK/rdrp.pipeline --calib $WORK/calib.csv \
      --data $WORK/test.csv --window-rows -1
# Load-replay knobs that used to run a phase vacuously (a swap storm with
# no swaps, a deadline that never expires) and exit 0, or exit 1 naming a
# struct field, exit 2 naming the flag.
load_replay=($CLI load-replay --pipeline $WORK/rdrp.pipeline
             --calib $WORK/calib.csv --data $WORK/test.csv)
check_rejects "--swap-storm-swaps must be >= 1" "${load_replay[@]}" \
  --swap-storm-swaps -1
check_rejects "--tight-deadline-micros must be >= 1" "${load_replay[@]}" \
  --tight-deadline-micros -50
check_rejects "--feedback-rows must be >= 0" "${load_replay[@]}" \
  --feedback-rows -5
check_rejects "--shadow-interval-every must be >= 0" "${load_replay[@]}" \
  --shadow-interval-every -1
check_rejects "--exemplar-rate must be in [0, 1]" "${load_replay[@]}" \
  --exemplar-rate 2
check_rejects "--client-threads must be >= 1" "${load_replay[@]}" \
  --client-threads 0
check_rejects "--burst-factor must be >= 1" "${load_replay[@]}" \
  --burst-factor -1
check_rejects "--requests must be >= 1" "${load_replay[@]}" --requests 0
check_rejects "--request-rows must be >= 1" "${load_replay[@]}" \
  --request-rows 0
check_rejects "--oversized-factor must be >= 1" "${load_replay[@]}" \
  --oversized-factor 0
# No subcommand, or an unknown one, prints the usage and exits 2.
check_rejects "usage: roicl" $CLI
check_rejects "usage: roicl" $CLI frobnicate
# Artifact consumers read every hyperparameter from the --pipeline
# artifact, so a training flag there is a typo, not a setting.
for flag in "--alpha 0.5" "--mc-passes 7" "--epochs 99"; do
  check_rejects "unknown flag ${flag%% *}" \
    $CLI evaluate --pipeline $WORK/rdrp.pipeline --data $WORK/test.csv $flag
done
check_rejects "unknown flag --mc-passes" \
  $CLI predict --pipeline $WORK/rdrp.pipeline --data $WORK/test.csv \
      --out $WORK/x.csv --mc-passes 7
check_rejects "unknown flag --forest-trees" $CLI campaign --forest-trees 5
check_rejects "--interval-backend all is only valid for monitor-replay" \
  $CLI train --method rdrp --train $WORK/train.csv \
      --save-pipeline $WORK/x --interval-backend all
# --threads 0 is the documented "shared pool" setting, not an error.
$CLI predict --pipeline $WORK/rdrp.pipeline \
    --data $WORK/test.csv --threads 0 --out $WORK/threads0.csv
[ "$(wc -l < $WORK/threads0.csv)" -eq 801 ]

# Streaming allocation, both sources: the model-free synthetic population
# in dual mode, and a pipeline scoring a CSV.
$CLI allocate --streaming --synthetic-rows 200000 --shards 4 --mode dual \
    > $WORK/stream_dual.txt
grep -q "dual gap" $WORK/stream_dual.txt
$CLI allocate --streaming --pipeline $WORK/drp.pipeline \
    --data $WORK/test.csv > $WORK/stream_csv.txt
grep -q "incr. revenue" $WORK/stream_csv.txt
# The documented cap failure: 4M shard objects cannot fit in 1 MiB, and
# the shard charge fails before anything is allocated.
rc=0
$CLI allocate --streaming --synthetic-rows 100000 --shards 4000000 \
    --memory-cap-mb 1 2>$WORK/err.txt || rc=$?
[ "$rc" -eq 1 ] || { echo "expected exit 1 from the capped run, got $rc"; exit 1; }
grep -qF "FAILED_PRECONDITION" $WORK/err.txt \
  || { echo "missing FAILED_PRECONDITION"; cat $WORK/err.txt; exit 1; }

# A successful campaign grid: one table row per arm, each with a numeric
# coverage column (dnc-rdrp carries per-arm conformal intervals).
$CLI campaign --dataset criteo --arms 2 --n-train 800 --n-calib 400 \
    --n-test 400 --epochs 2 --restarts 1 > $WORK/campaign.txt
[ "$(awk '$1 ~ /^[0-9]+$/ && $4 ~ /^[0-9]+[.][0-9]+$/' \
    $WORK/campaign.txt | wc -l)" -eq 2 ] \
  || { echo "expected a coverage value per arm"; cat $WORK/campaign.txt; exit 1; }

echo "CLI smoke test passed"
