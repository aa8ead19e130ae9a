#!/bin/bash
# Builds a focused test subset under one sanitizer (-DROICL_SANITIZE=<mode>)
# and runs it. Wired into ctest as `tsan_suite`, `asan_suite` and
# `ubsan_suite` (labels `tsan`, `asan`, `ubsan`):
#   thread     a data-race gate over the ThreadPool, the obs metrics/trace
#              singletons, the batched parallel prediction engine, and the
#              serving and monitoring layers;
#   address    a heap-error and leak gate over the Matrix buffers,
#              CSV/model (de)serialization, the layer stack, and the
#              allocators;
#   undefined  an overflow/UB gate over the index math, the conformal
#              quantile machinery, and the metric curves.
#
# Usage: run_sanitizer.sh <thread|address|undefined> <repo root> [build dir]
# Each sanitizer's build tree is kept separate (default
# <repo root>/build-tsan, build-asan or build-ubsan) and incremental, so
# repeat runs only recompile what changed.
set -euo pipefail

usage="usage: run_sanitizer.sh <thread|address|undefined> <repo root> [build dir]"
mode=${1:?${usage}}
repo_root=${2:?${usage}}

case "${mode}" in
  thread)
    short=tsan
    # The race-prone surfaces and the tests that exercise them:
    #   annotated_mutex_test  Mutex/MutexLock/CondVar wrapper semantics:
    #                         contention, TryLock, wait/notify reacquisition
    #   common_misc_test      ThreadPool submit/ParallelFor/shutdown
    #   obs_test              concurrent metrics registry and trace collector
    #   determinism_test      batched parallel forward + MC-dropout engine
    #   scoring_service_test  ScoringService queue/dispatcher/shutdown,
    #                         atomic q_hat swap racing live Submits
    #   monitor_test          ServingMonitor mutex + outcome/recalibrate races
    #   load_replay_test      adversarial replay: open-loop client threads,
    #                         exemplar slots, SLO engine, the swap_storm
    #                         phase racing SetConformalQuantile mid-flight,
    #                         and a forced recalibration after each phase
    #   alloc_fuzz_test       concurrent shard accumulation: disjoint
    #                         frontiers racing on the shared atomic memory
    #                         accountant (ConcurrentShardAccumulation case)
    #   campaign_allocate_test  the same parallel-shard accumulation with K>1
    #                         arms: shard tasks share one multi-arm chunk
    #                         (ParallelShardsMatchSequential case)
    tests=(annotated_mutex_test common_misc_test obs_test
           determinism_test scoring_service_test monitor_test
           load_replay_test alloc_fuzz_test campaign_allocate_test)
    # halt_on_error keeps the first race's report adjacent to its cause.
    options_var=TSAN_OPTIONS
    options="halt_on_error=1"
    ;;
  address)
    short=asan
    # The memory-churn surfaces and the tests that exercise them:
    #   matrix_test        Matrix construction, stacking, SelectRows, matmul
    #   solve_test         Cholesky scratch buffers
    #   data_test          CSV parse/serialize round trips
    #   serialize_test     model save/load byte streams
    #   nn_layers_test     layer activations and gradient buffers
    #   common_misc_test   ThreadPool lifetime
    #   greedy_test        allocation result vectors
    #   uplift_test        multi-head nets and meta-learner ensembles
    #   pipeline_roundtrip_test  pipeline artifact manifest/blob parsing
    #   interval_backend_test  backend save/load byte streams and registry
    #                      construction
    #   alloc_fuzz_test    frontier merge double-buffering and the adversarial
    #                      (NaN, zero-budget, k=0) streaming-allocator inputs
    #   campaign_allocate_test  the K>1 paths of the shared streaming greedy:
    #                      per-arm chunk buffers and the pair decode
    #                      (index / n) into per-arm spend arrays
    #   determinism_test   MC-dropout workspace reuse across a block's passes
    #                      and the short last block: a buffer-reuse path
    tests=(matrix_test solve_test data_test serialize_test nn_layers_test
           common_misc_test greedy_test uplift_test
           pipeline_roundtrip_test interval_backend_test alloc_fuzz_test
           campaign_allocate_test determinism_test)
    # detect_leaks turns LeakSanitizer on explicitly; halt_on_error keeps
    # the first report adjacent to its cause.
    options_var=ASAN_OPTIONS
    options="detect_leaks=1:halt_on_error=1"
    ;;
  undefined)
    short=ubsan
    # The UB-prone surfaces and the tests that exercise them:
    #   rng_test           bit-mixing and rotation in the counter-based RNG
    #   stats_test         quantile index arithmetic, including the
    #                      ceil((1-alpha)(n+1)) conformal rank
    #   matrix_test        row-pointer arithmetic in the blocked matmul
    #   solve_test         divisions in the Cholesky back-substitution
    #   drp_loss_test      log/exp in the listwise softmax loss
    #   conformal_test     ceil((1-alpha)(n+1))/n quantile index
    #   roi_star_test      binary-search bracket arithmetic
    #   metrics_test       cumulative cost-curve and Qini integration
    #   interval_backend_test  weighted-quantile ratio/cumulative-mass
    #                      arithmetic and CQR residual normalization
    #   alloc_fuzz_test    int64 index arithmetic, dual-threshold bucket
    #                      math, and the frontier prefix-sum cut
    #   campaign_allocate_test  (arm - 1) * n + user pair encoding and its
    #                      index / n decode on the K>1 streaming path
    tests=(rng_test stats_test matrix_test solve_test drp_loss_test
           conformal_test roi_star_test metrics_test interval_backend_test
           alloc_fuzz_test campaign_allocate_test)
    # print_stacktrace makes the one report actionable; the build already
    # aborts on the first finding via -fno-sanitize-recover=all.
    options_var=UBSAN_OPTIONS
    options="print_stacktrace=1:halt_on_error=1"
    ;;
  *)
    echo "${usage}" >&2
    exit 2
    ;;
esac
build_dir=${3:-"${repo_root}/build-${short}"}

cmake -S "${repo_root}" -B "${build_dir}" -DROICL_SANITIZE="${mode}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${build_dir}" --target "${tests[@]}" -j "$(nproc)"

status=0
for test in "${tests[@]}"; do
  echo "== ${short}: ${test} =="
  # A non-zero exit fails this script and therefore the ctest entry.
  if ! env "${options_var}=${options}" "${build_dir}/tests/${test}"; then
    status=1
  fi
done
exit ${status}
