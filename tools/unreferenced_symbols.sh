#!/bin/sh
# Lists library functions that no linked program keeps.
#
#   tools/unreferenced_symbols.sh <build-dir>
#
# Configures <build-dir> (Release, tests + examples + benches on) with one
# section per function and data object and linker garbage collection
# (-ffunction-sections -fdata-sections -Wl,--gc-sections), builds every
# target, then diffs the global functions defined in the liblumos*.a
# archives against the symbols that survive in the linked executables:
# every test, example, bench and tool. Each printed line (demangled) is a
# library function that no executable carries an out-of-line copy of.
#
# Not every line is dead code. A function inlined at every call site has no
# out-of-line copy left in any executable either, so it appears in the list
# although it is used. Grep the whole repository, bench_e2e/ included, for
# callers before deleting anything the list names.
set -eu

build=${1:?usage: tools/unreferenced_symbols.sh <build-dir>}
src=$(cd "$(dirname "$0")/.." && pwd)

cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DLUMOS_BUILD_TESTS=ON -DLUMOS_BUILD_EXAMPLES=ON -DLUMOS_BUILD_BENCHES=ON \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 2)" >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Mangled names have no spaces, so the third nm column is the whole name.
nm --defined-only "$build"/liblumos*.a 2>/dev/null |
  awk 'NF == 3 && $2 == "T" { print $3 }' | sort -u >"$tmp/defined"

for dir in tests examples bench tools; do
  [ -d "$build/$dir" ] || continue
  find "$build/$dir" -maxdepth 1 -type f -perm -u+x
done >"$tmp/programs"
if [ ! -s "$tmp/programs" ]; then
  echo "unreferenced_symbols: no linked programs under $build" >&2
  exit 1
fi
xargs nm --defined-only <"$tmp/programs" 2>/dev/null |
  awk 'NF == 3 { print $3 }' | sort -u >"$tmp/linked"

comm -23 "$tmp/defined" "$tmp/linked" | c++filt
