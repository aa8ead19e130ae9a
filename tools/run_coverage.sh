#!/bin/bash
# Lists the code in src/ and tools/ that the test suite never runs, so
# each never-run function can get a test or be deleted.
#
# Builds every target with --coverage -O0 in its own tree, runs the ctest
# suite without the sanitizer and strict-build suites, and runs the
# examples directly (under -O0 some exceed their ctest timeout). Then
# reads gcov's JSON for every translation unit and merges it by (file,
# start line): a function site or a line counts as run when any
# translation unit ran it, so an inline function compiled into many
# objects is one site. Prints each never-run function site, the
# never-run lines of each file, and the totals.
#
# Not a ctest: the build and the -O0 suite take several minutes.
#
# Usage: run_coverage.sh <repo root> [build dir]
# The coverage tree defaults to <repo root>/build-coverage; the counts of
# earlier runs in it are cleared first.
set -euo pipefail

repo_root=$(cd "${1:?usage: run_coverage.sh <repo root> [build dir]}" && pwd)
build_dir=${2:-"${repo_root}/build-coverage"}
jobs=$(nproc)

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "${build_dir}" -j "${jobs}" >/dev/null
build_dir=$(cd "${build_dir}" && pwd)
find "${build_dir}" -name '*.gcda' -delete

# A failing test still leaves the counts of everything that ran; report
# it and go on.
if ! (cd "${build_dir}" &&
      ctest -LE "tsan|asan|ubsan|strict|example" -j "${jobs}" >&2); then
  echo "warning: some tests failed; coverage covers what ran" >&2
fi
while read -r example; do
  (cd "${build_dir}/examples" && "./${example}" >/dev/null) ||
    echo "warning: example ${example} failed; coverage covers what ran" >&2
done < <(grep -oE '^roicl_add_example\([a-z_]+' \
           "${repo_root}/examples/CMakeLists.txt" | cut -d'(' -f2)

gcov_dir=$(mktemp -d)
trap 'rm -rf "${gcov_dir}"' EXIT
(cd "${gcov_dir}" &&
 find "${build_dir}" -name '*.gcda' -print0 |
   xargs -0 -n 64 gcov -p --json-format >/dev/null)

python3 - "${repo_root}" "${gcov_dir}" <<'EOF'
import gzip
import json
import os
import sys

root, gcov_dir = sys.argv[1], sys.argv[2]
functions = {}  # (file, start line) -> [name, ran]
lines = {}      # (file, line) -> ran
for name in sorted(os.listdir(gcov_dir)):
    if not name.endswith(".gcov.json.gz"):
        continue
    with gzip.open(os.path.join(gcov_dir, name), "rt") as f:
        unit = json.load(f)
    cwd = unit.get("current_working_directory", "")
    for entry in unit["files"]:
        path = os.path.relpath(
            os.path.normpath(os.path.join(cwd, entry["file"])), root)
        if not path.startswith(("src/", "tools/")):
            continue
        for fn in entry["functions"]:
            site = functions.setdefault((path, fn["start_line"]),
                                        [fn["demangled_name"], False])
            site[1] = site[1] or fn["execution_count"] > 0
        for line in entry["lines"]:
            key = (path, line["line_number"])
            lines[key] = lines.get(key, False) or line["count"] > 0


def ranges(numbers):
    spans = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


never_functions = sorted(k for k, (_, ran) in functions.items() if not ran)
print(f"never-run function sites ({len(never_functions)}):")
for path, start in never_functions:
    print(f"  {path}:{start}  {functions[(path, start)][0]}")
never_lines = {}
for (path, number), ran in lines.items():
    if not ran:
        never_lines.setdefault(path, []).append(number)
print(f"never-run lines by file ({len(never_lines)} files):")
for path in sorted(never_lines):
    numbers = sorted(never_lines[path])
    print(f"  {path} ({len(numbers)}): {ranges(numbers)}")
total_lines = sum(1 for _ in lines)
print(f"total: {len(never_functions)} of {len(functions)} function sites "
      f"and {sum(len(v) for v in never_lines.values())} of {total_lines} "
      f"lines never run")
EOF
