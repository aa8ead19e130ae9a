#!/bin/bash
# Builds the concurrency-sensitive tests under ThreadSanitizer
# (-DROICL_SANITIZE=thread) and runs them. Wired into ctest as the `tsan`
# label so `ctest -L tsan` gives a data-race gate over the ThreadPool,
# the obs metrics/trace singletons, and the batched parallel prediction
# engine.
#
# Usage: run_tsan.sh <repo root> [build dir]
# The TSan build tree is kept separate (default <repo root>/build-tsan)
# and incremental, so repeat runs only recompile what changed.
set -euo pipefail

repo_root=${1:?usage: run_tsan.sh <repo root> [build dir]}
build_dir=${2:-"${repo_root}/build-tsan"}

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
#                         exemplar slots, SLO engine, and the swap_storm
#                         phase racing SetConformalQuantile mid-flight
#   alloc_fuzz_test       concurrent shard accumulation: disjoint
#                         frontiers racing on the shared atomic memory
#                         accountant (ConcurrentShardAccumulation case)
#   campaign_allocate_test  the same parallel-shard accumulation with K>1
#                         arms: shard tasks share one multi-arm chunk
#                         (ParallelShardsMatchSequential case)
tsan_tests=(annotated_mutex_test common_misc_test obs_test
            determinism_test scoring_service_test monitor_test
            load_replay_test alloc_fuzz_test campaign_allocate_test)

cmake -S "${repo_root}" -B "${build_dir}" -DROICL_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${build_dir}" --target "${tsan_tests[@]}" -j "$(nproc)"

status=0
for test in "${tsan_tests[@]}"; do
  echo "== tsan: ${test} =="
  # halt_on_error keeps the first race's report adjacent to its cause;
  # the non-zero exit fails this script and therefore the ctest entry.
  if ! TSAN_OPTIONS="halt_on_error=1" "${build_dir}/tests/${test}"; then
    status=1
  fi
done
exit ${status}
