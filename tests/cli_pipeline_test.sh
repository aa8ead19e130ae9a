#!/bin/bash
# End-to-end test of the train-once/serve-many flow:
#   train --save-pipeline -> score --pipeline -> serve --pipeline
# The acceptance bar: `roicl serve` must score a held-out CSV bitwise
# identical to in-process prediction, at several engine settings.
# Run by ctest with the build dir as argument.
set -euo pipefail
BUILD_DIR="$1"
WORK=$(mktemp -d)
trap "rm -rf $WORK" EXIT
CLI="$BUILD_DIR/tools/roicl"

$CLI generate --dataset criteo --n 2000 --seed 1 --out $WORK/train.csv
$CLI generate --dataset criteo --n 600 --seed 2 --shifted \
    --out $WORK/calib.csv
$CLI generate --dataset criteo --n 777 --seed 3 --out $WORK/test.csv

# --- Point method: train once, then score and serve must agree. --------
$CLI train --method drp --train $WORK/train.csv --epochs 8 --restarts 1 \
    --save-pipeline $WORK/drp.pipe
$CLI score --pipeline $WORK/drp.pipe --data $WORK/test.csv \
    --out $WORK/inproc.csv
[ "$(head -1 $WORK/inproc.csv)" = "roi" ]
[ "$(wc -l < $WORK/inproc.csv)" -eq 778 ]
# Serving through the long-lived ScoringService is bitwise identical to
# in-process scoring, at different request splits and thread counts.
for opts in "--request-rows 64 --threads 1" \
            "--request-rows 100 --threads 4" \
            "--request-rows 1000 --threads 8"; do
  $CLI serve --pipeline $WORK/drp.pipe --data $WORK/test.csv \
      --out $WORK/served.csv $opts
  cmp $WORK/inproc.csv $WORK/served.csv \
    || { echo "serve output differs from in-process ($opts)"; exit 1; }
done

# --- Conformal method: pipeline carries calibration state. -------------
$CLI train --method rdrp --train $WORK/train.csv --calib $WORK/calib.csv \
    --epochs 8 --restarts 1 --save-pipeline $WORK/rdrp.pipe
$CLI score --pipeline $WORK/rdrp.pipe --data $WORK/test.csv \
    --out $WORK/rdrp_scores.csv
[ "$(head -1 $WORK/rdrp_scores.csv)" = "roi,interval_lo,interval_hi" ]
# Scoring the same artifact twice is deterministic.
$CLI score --pipeline $WORK/rdrp.pipe --data $WORK/test.csv \
    --out $WORK/rdrp_scores2.csv
cmp $WORK/rdrp_scores.csv $WORK/rdrp_scores2.csv
# serve returns point scores only. rDRP's calibrated score may consume
# MC-dropout std, whose RNG streams key on within-request row indices —
# so served bits are a function of the request split. Two guarantees to
# pin: (a) served as ONE request, the roi column is bitwise identical to
# score's; (b) any fixed split is bitwise reproducible run-to-run.
$CLI serve --pipeline $WORK/rdrp.pipe --data $WORK/test.csv \
    --out $WORK/rdrp_served.csv --request-rows 1000000
cut -d, -f1 $WORK/rdrp_scores.csv > $WORK/rdrp_roi_col.csv
cmp $WORK/rdrp_roi_col.csv $WORK/rdrp_served.csv \
    || { echo "single-request rDRP serve differs from score's roi"; exit 1; }
$CLI serve --pipeline $WORK/rdrp.pipe --data $WORK/test.csv \
    --out $WORK/rdrp_served77a.csv --request-rows 77 --threads 2
$CLI serve --pipeline $WORK/rdrp.pipe --data $WORK/test.csv \
    --out $WORK/rdrp_served77b.csv --request-rows 77 --threads 4
cmp $WORK/rdrp_served77a.csv $WORK/rdrp_served77b.csv \
    || { echo "chunked rDRP serve is not reproducible"; exit 1; }
# evaluate and allocate accept --pipeline too.
$CLI evaluate --pipeline $WORK/rdrp.pipe --data $WORK/test.csv \
  | grep -q "AUCC"
$CLI allocate --pipeline $WORK/rdrp.pipe --data $WORK/test.csv \
    --budget-frac 0.2 | grep -q "incr. revenue"

# --- Monitoring: replay a drifting stream through the served pipeline. -
# A shift injected mid-stream must be detected after the injection batch
# and answered with a q_hat recalibration; the summary reports detection
# latency and the three coverage regimes.
$CLI monitor-replay --pipeline $WORK/rdrp.pipe --calib $WORK/calib.csv \
    --data $WORK/test.csv --batch-rows 128 --num-batches 12 --shift-at 6 \
    --shift-gamma 3.0 --window-rows 256 --min-window 128 \
    --min-labeled 200 --seed 11 > $WORK/replay.txt
grep -q "shift injected       : batch 6" $WORK/replay.txt
grep -Eq "drift detected       : batch [0-9]+ \(latency [0-9]+ batches\)" \
    $WORK/replay.txt
grep -Eq "recalibrated         : batch [0-9]+" $WORK/replay.txt
# The coverage-regime table (pre-shift / shift->recal / post-recal) is
# printed for every run, one row per replayed backend.
grep -q "pre-shift  shift->recal  post-recal" $WORK/replay.txt
# The replay is seeded end to end: same flags, same bytes out.
$CLI monitor-replay --pipeline $WORK/rdrp.pipe --calib $WORK/calib.csv \
    --data $WORK/test.csv --batch-rows 128 --num-batches 12 --shift-at 6 \
    --shift-gamma 3.0 --window-rows 256 --min-window 128 \
    --min-labeled 200 --seed 11 > $WORK/replay2.txt
cmp $WORK/replay.txt $WORK/replay2.txt \
    || { echo "monitor-replay is not reproducible"; exit 1; }
# Replay validates its stream geometry up front.
if $CLI monitor-replay --pipeline $WORK/rdrp.pipe --calib $WORK/calib.csv \
    --data $WORK/test.csv --batch-rows 0 2>/dev/null; then
  echo "expected failure for bad --batch-rows"; exit 1
fi

# --- Interval backends: chosen at training, one replay row each. -------
# Unknown backend names die in flag validation, listing the registry.
rc=0
$CLI train --method rdrp --train $WORK/train.csv --calib $WORK/calib.csv \
    --save-pipeline $WORK/x.pipe --interval-backend jackknife \
    2>$WORK/err.txt || rc=$?
[ "$rc" -eq 2 ] \
  || { echo "expected exit 2 for unknown backend, got $rc"; exit 1; }
grep -qF "split, weighted, cqr" $WORK/err.txt
# Artifact consumers serve the backend the artifact carries; the flag is
# not theirs, so it is rejected like any other unknown flag.
for cmd in predict score serve evaluate allocate; do
  args=(--pipeline $WORK/rdrp.pipe --data $WORK/test.csv)
  case $cmd in predict|score|serve) args+=(--out $WORK/x.csv) ;; esac
  rc=0
  $CLI $cmd "${args[@]}" --interval-backend split 2>$WORK/err.txt || rc=$?
  [ "$rc" -eq 2 ] || { echo "expected exit 2 from $cmd, got $rc"; exit 1; }
  grep -qF "unknown flag --interval-backend for subcommand $cmd" \
      $WORK/err.txt || { echo "$cmd did not name the flag"; exit 1; }
done
# Training bakes the chosen backend into the artifact: a cqr pipeline
# carries its quantile-head model through score.
$CLI train --method rdrp --train $WORK/train.csv --calib $WORK/calib.csv \
    --epochs 8 --restarts 1 --interval-backend cqr \
    --save-pipeline $WORK/cqr.pipe
$CLI score --pipeline $WORK/cqr.pipe --data $WORK/test.csv \
    --out $WORK/cqr_scores.csv
[ "$(head -1 $WORK/cqr_scores.csv)" = "roi,interval_lo,interval_hi" ]
# Per-backend replay smoke: `--interval-backend all` reruns the same
# seeded shifted stream once per registered backend and prints one
# coverage row each.
$CLI monitor-replay --pipeline $WORK/rdrp.pipe --calib $WORK/calib.csv \
    --data $WORK/test.csv --batch-rows 128 --num-batches 12 --shift-at 6 \
    --shift-gamma 3.0 --window-rows 256 --min-window 128 \
    --min-labeled 200 --seed 11 --interval-backend all \
    > $WORK/replay_all.txt
grep -Eq "^split " $WORK/replay_all.txt
grep -Eq "^weighted " $WORK/replay_all.txt
grep -Eq "^cqr " $WORK/replay_all.txt
$CLI monitor-replay --pipeline $WORK/rdrp.pipe --calib $WORK/calib.csv \
    --data $WORK/test.csv --batch-rows 128 --num-batches 12 --shift-at 6 \
    --shift-gamma 3.0 --window-rows 256 --min-window 128 \
    --min-labeled 200 --seed 11 --interval-backend all \
    > $WORK/replay_all2.txt
cmp $WORK/replay_all.txt $WORK/replay_all2.txt \
    || { echo "per-backend monitor-replay is not reproducible"; exit 1; }

# --- A non-neural method round-trips through the same artifact. --------
$CLI train --method tpm-sl --train $WORK/train.csv --forest-trees 5 \
    --save-pipeline $WORK/sl.pipe
$CLI score --pipeline $WORK/sl.pipe --data $WORK/test.csv \
    --out $WORK/sl1.csv
$CLI serve --pipeline $WORK/sl.pipe --data $WORK/test.csv \
    --out $WORK/sl2.csv --request-rows 50
cmp $WORK/sl1.csv $WORK/sl2.csv

# --- Error paths return non-zero with useful messages. -----------------
if $CLI train --method nonsense --train $WORK/train.csv \
    --save-pipeline $WORK/x 2>$WORK/err.txt; then
  echo "expected failure for unknown method"; exit 1
fi
grep -q "registered methods" $WORK/err.txt
grep -q "rDRP" $WORK/err.txt
if $CLI score --pipeline /nonexistent --data $WORK/test.csv \
    --out $WORK/x.csv; then
  echo "expected failure for missing pipeline"; exit 1
fi
if $CLI serve --pipeline $WORK/drp.pipe --data $WORK/calib.csv \
    --out $WORK/x.csv --request-rows 0; then
  echo "expected failure for bad --request-rows"; exit 1
fi
# There is no raw-model-blob loader: its old spelling is an unknown flag.
rc=0
$CLI evaluate --model-type drp --model $WORK/drp.pipe \
    --data $WORK/test.csv 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] \
  || { echo "expected exit 2 for the raw-blob spelling, got $rc"; exit 1; }

# `roicl methods` lists the registry (used by docs and scripts).
$CLI methods | grep -qx "rDRP"
[ "$($CLI methods | wc -l)" -ge 10 ]

echo "CLI pipeline test passed"
