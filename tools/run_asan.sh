#!/bin/bash
# Builds the allocation-heavy tests under AddressSanitizer +
# LeakSanitizer (-DROICL_SANITIZE=address) and runs them. Wired into
# ctest as the `asan` label so `ctest -L asan` gives a heap-error gate
# over the Matrix buffers, CSV/model (de)serialization, the layer stack,
# and the greedy allocator.
#
# Usage: run_asan.sh <repo root> [build dir]
# The ASan build tree is kept separate (default <repo root>/build-asan)
# and incremental, so repeat runs only recompile what changed.
set -euo pipefail

repo_root=${1:?usage: run_asan.sh <repo root> [build dir]}
build_dir=${2:-"${repo_root}/build-asan"}

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
#   incremental_quantile_test  treap node churn: insert/erase/clear over
#                      duplicate-heavy sliding windows
#   interval_backend_test  backend save/load byte streams and registry
#                      construction
#   alloc_fuzz_test    frontier merge double-buffering and the adversarial
#                      (NaN, zero-budget, k=0) streaming-allocator inputs
#   campaign_allocate_test  the K>1 paths of the shared streaming greedy:
#                      per-arm chunk buffers and the pair decode
#                      (index / n) into per-arm spend arrays
#   determinism_test   MC-dropout workspace reuse across a block's passes
#                      and the short last block: a buffer-reuse path
asan_tests=(matrix_test solve_test data_test serialize_test nn_layers_test
            common_misc_test greedy_test uplift_test
            pipeline_roundtrip_test incremental_quantile_test
            interval_backend_test alloc_fuzz_test campaign_allocate_test
            determinism_test)

cmake -S "${repo_root}" -B "${build_dir}" -DROICL_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${build_dir}" --target "${asan_tests[@]}" -j "$(nproc)"

status=0
for test in "${asan_tests[@]}"; do
  echo "== asan: ${test} =="
  # detect_leaks turns LeakSanitizer on explicitly; halt_on_error keeps
  # the first report adjacent to its cause, and the non-zero exit fails
  # this script and therefore the ctest entry.
  if ! ASAN_OPTIONS="detect_leaks=1:halt_on_error=1" \
      "${build_dir}/tests/${test}"; then
    status=1
  fi
done
exit ${status}
