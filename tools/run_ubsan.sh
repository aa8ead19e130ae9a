#!/bin/bash
# Builds the numeric-kernel tests under UndefinedBehaviorSanitizer
# (-DROICL_SANITIZE=undefined) and runs them. Wired into ctest as the
# `ubsan` label so `ctest -L ubsan` gives an overflow/UB gate over the
# index math, the conformal quantile machinery, and the metric curves.
#
# Usage: run_ubsan.sh <repo root> [build dir]
# The UBSan build tree is kept separate (default <repo root>/build-ubsan)
# and incremental, so repeat runs only recompile what changed.
set -euo pipefail

repo_root=${1:?usage: run_ubsan.sh <repo root> [build dir]}
build_dir=${2:-"${repo_root}/build-ubsan"}

# The UB-prone surfaces and the tests that exercise them:
#   rng_test           bit-mixing and rotation in the counter-based RNG
#   stats_test         quantile index arithmetic
#   matrix_test        row-pointer arithmetic in the blocked matmul
#   solve_test         divisions in the Cholesky back-substitution
#   drp_loss_test      log/exp in the listwise softmax loss
#   conformal_test     ceil((1-alpha)(n+1))/n quantile index
#   roi_star_test      binary-search bracket arithmetic
#   metrics_test       cumulative cost-curve and Qini integration
#   incremental_quantile_test  rank arithmetic in the order-statistic
#                      treap and its ceil((1-alpha)(n+1)) quantile
#   interval_backend_test  weighted-quantile ratio/cumulative-mass
#                      arithmetic and CQR residual normalization
#   alloc_fuzz_test    int64 index arithmetic, dual-threshold bucket
#                      math, and the frontier prefix-sum cut
#   campaign_allocate_test  (arm - 1) * n + user pair encoding and its
#                      index / n decode on the K>1 streaming path
ubsan_tests=(rng_test stats_test matrix_test solve_test drp_loss_test
             conformal_test roi_star_test metrics_test
             incremental_quantile_test interval_backend_test
             alloc_fuzz_test campaign_allocate_test)

cmake -S "${repo_root}" -B "${build_dir}" -DROICL_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${build_dir}" --target "${ubsan_tests[@]}" -j "$(nproc)"

status=0
for test in "${ubsan_tests[@]}"; do
  echo "== ubsan: ${test} =="
  # print_stacktrace makes the one report actionable; the build already
  # aborts on the first finding via -fno-sanitize-recover=all.
  if ! UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
      "${build_dir}/tests/${test}"; then
    status=1
  fi
done
exit ${status}
