#!/bin/bash
# Self-check for the manifest-driven lints under tools/lint/: each one
# must FAIL on a deliberately-bad fixture tree and PASS on this
# repository. A lint that silently stopped matching (regex rot, directory
# rename) would otherwise keep reporting success forever — this test is
# the lint for the lints. Every invocation goes through
# tools/lint/run_lints.sh so the engine's spec resolution and name
# dispatch are exercised on both the bad and the good path.
#
# Usage: lint_selfcheck_test.sh <repo root>
set -euo pipefail

repo_root=${1:?usage: lint_selfcheck_test.sh <repo root>}
runner="${repo_root}/tools/lint/run_lints.sh"
fixture=$(mktemp -d "${TMPDIR:-/tmp}/roicl_lint_selfcheck.XXXXXX")
trap 'rm -rf "${fixture}"' EXIT

status=0

expect_fail() {
  local label=$1
  shift
  if "$@" >/dev/null 2>&1; then
    echo "FAIL: ${label}: lint passed on a bad fixture"
    status=1
  else
    echo "ok: ${label} rejects the bad fixture"
  fi
}

expect_pass() {
  local label=$1
  shift
  if "$@" >/dev/null 2>&1; then
    echo "ok: ${label} passes on the real repo"
  else
    echo "FAIL: ${label}: lint fails on the real repo"
    status=1
  fi
}

# --- Fixture: a miniature repo with one violation per lint. -------------
mkdir -p "${fixture}/src/core" "${fixture}/tools" "${fixture}/tests"

# check_determinism: ambient entropy in library code.
cat > "${fixture}/src/core/bad_rng.cc" <<'EOF'
#include <random>
int Draw() {
  std::random_device rd;
  return static_cast<int>(rd());
}
EOF

# check_include_guards: #pragma once, wrong guard name, and a
# header-scope using directive.
cat > "${fixture}/src/core/bad_header.h" <<'EOF'
#pragma once
using namespace std;
int F();
EOF

# check_scripts: missing strict mode and missing executable bit.
cat > "${fixture}/tools/sloppy.sh" <<'EOF'
#!/bin/bash
echo "no strict mode here"
EOF
chmod -x "${fixture}/tools/sloppy.sh"

# check_no_raw_io: a printf outside the sanctioned sinks.
cat > "${fixture}/src/core/bad_io.cc" <<'EOF'
#include <cstdio>
void Shout() { std::printf("raw stdout write\n"); }
EOF

# check_lint_manifest, top-level-gate rule: a lint that exists but is
# wired into no CMakeLists. Regression test for a silent-abort bug where
# grep's exit-1-on-no-match killed the lint (under set -e -o pipefail)
# before it could report the unregistered script — so assert the
# message, not just the exit code.
cat > "${fixture}/tools/check_unwired.sh" <<'EOF'
#!/bin/bash
set -euo pipefail
exit 0
EOF
chmod +x "${fixture}/tools/check_unwired.sh"

# check_lock_discipline: a raw std::mutex in library code, plus a Mutex
# member that no ROICL_* contract in its header ever references.
cat > "${fixture}/src/core/bad_raw_lock.cc" <<'EOF'
#include <mutex>
std::mutex raw_mu;
void Bump(int* n) {
  std::lock_guard<std::mutex> lock(raw_mu);
  ++*n;
}
EOF
cat > "${fixture}/src/core/bad_naked_mutex.h" <<'EOF'
#ifndef ROICL_CORE_BAD_NAKED_MUTEX_H_
#define ROICL_CORE_BAD_NAKED_MUTEX_H_
class Unguarded {
 public:
  void Touch();

 private:
  Mutex naked_mu_;
  int value_ = 0;
};
#endif  // ROICL_CORE_BAD_NAKED_MUTEX_H_
EOF

# check_unordered: an unordered container whose iteration order would
# leak into output.
cat > "${fixture}/src/core/bad_unordered.cc" <<'EOF'
#include <string>
#include <unordered_map>
int Sum(const std::unordered_map<std::string, int>& m) {
  int total = 0;
  for (const auto& [key, value] : m) total += value;
  return total;
}
EOF

# check_testnames: an orphan test source registered in no
# roicl_add_test(), next to enough registered tests (and one wired .sh
# harness) to clear the regex-rot count guards.
cat > "${fixture}/tests/orphan_test.cc" <<'EOF'
// Deliberately unregistered: compiles nowhere, runs never.
EOF
{
  for i in $(seq 0 10); do
    touch "${fixture}/tests/decoy${i}_test.cc"
    echo "roicl_add_test(decoy${i}_test decoy${i}_test.cc)"
  done
  echo "add_test(NAME wired_sh COMMAND bash wired_test.sh)"
} > "${fixture}/tests/CMakeLists.txt"
touch "${fixture}/tests/wired_test.sh"

# --- Each lint must reject its fixture... -------------------------------
expect_fail check_determinism bash "${runner}" "${fixture}" check_determinism
expect_fail check_include_guards \
  bash "${runner}" "${fixture}" check_include_guards
expect_fail check_scripts bash "${runner}" "${fixture}" check_scripts
expect_fail check_no_raw_io bash "${runner}" "${fixture}" check_no_raw_io
expect_fail check_testnames bash "${runner}" "${fixture}" check_testnames
expect_fail check_lock_discipline \
  bash "${runner}" "${fixture}" check_lock_discipline
expect_fail check_unordered bash "${runner}" "${fixture}" check_unordered
expect_fail check_lint_manifest \
  bash "${runner}" "${fixture}" check_lint_manifest
# The engine itself must fail loudly on a name the manifest doesn't know,
# not vacuously pass by running zero lints.
expect_fail run_lints_unknown_name \
  bash "${runner}" "${repo_root}" check_no_such_lint

# The testname lint names the orphan source, not just "failed".
testnames_out=$(bash "${runner}" "${fixture}" check_testnames 2>&1 || true)
if grep -q "tests/orphan_test.cc: not registered" <<<"${testnames_out}"; then
  echo "ok: check_testnames reports the orphan test by name"
else
  echo "FAIL: check_testnames did not name the orphan test"
  status=1
fi

# Capture first: under pipefail the lint's expected exit 1 would mask
# grep's verdict in a direct pipeline.
manifest_out=$(bash "${runner}" "${fixture}" check_lint_manifest 2>&1 || true)
if grep -q 'check_unwired.sh: referenced 0 times' \
    <<<"${manifest_out}"; then
  echo "ok: check_lint_manifest reports the unregistered lint by name"
else
  echo "FAIL: check_lint_manifest did not report the unregistered lint"
  status=1
fi

# The lock lint names both the raw primitive and the contract-less member.
lock_out=$(bash "${runner}" "${fixture}" check_lock_discipline 2>&1 || true)
for needle in "bad_raw_lock.cc" "Mutex member 'naked_mu_'"; do
  if grep -q "${needle}" <<<"${lock_out}"; then
    echo "ok: check_lock_discipline reports '${needle}'"
  else
    echo "FAIL: check_lock_discipline did not report '${needle}'"
    status=1
  fi
done

# The unordered lint names the offending file, not just "failed".
unordered_out=$(bash "${runner}" "${fixture}" check_unordered 2>&1 || true)
if grep -q 'bad_unordered.cc' <<<"${unordered_out}"; then
  echo "ok: check_unordered reports the unordered-container site"
else
  echo "FAIL: check_unordered did not name the unordered-container site"
  status=1
fi

# --- ...and accept the real tree (one full-manifest engine run). --------
expect_pass full_manifest bash "${runner}" "${repo_root}"

exit "${status}"
