#!/bin/bash
# Builds every target with -DROICL_STRICT=ON: warnings as errors over the
# curated set in the top-level CMakeLists.txt (sign and size conversions,
# shadowing, double promotion, old-style casts, ...) plus -fanalyzer on
# the libraries. Wired into ctest as `strict_build` (label `strict`), so
# a strict-mode error fails the suite the day it lands instead of waiting
# for someone to try the mode.
#
# Usage: run_strict.sh <repo root> [build dir]
# The strict build tree is kept separate (default <repo root>/build-strict)
# and incremental, so repeat runs only recompile what changed.
set -euo pipefail

repo_root=${1:?usage: run_strict.sh <repo root> [build dir]}
build_dir=${2:-"${repo_root}/build-strict"}

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release \
  -DROICL_STRICT=ON >/dev/null
cmake --build "${build_dir}" -j "$(nproc)"
