#!/bin/sh
# Kernel ISA isolation: only the vector tiers of src/support/kernels.cpp
# may use instructions beyond baseline x86-64. The library is disassembled
# and the check fails when
#   * a function outside the `avx2` and `avx512` tier namespaces uses a
#     v-prefixed (VEX/EVEX) mnemonic, a %ymm, %zmm or %k register, popcnt
#     or pdep; the usual cause is a header included inside a
#     `#pragma GCC target` region, whose template copies then carry the
#     tier's instructions and may win at link time over baseline callers;
#   * a function of the avx2 tier uses a %zmm or %k register or pdep,
#     which AVX2-only CPUs lack.
#
# Usage: tools/check_kernel_isa.sh COMPILER_ID LIBRARY_OR_OBJECT...
# COMPILER_ID is CMake's CMAKE_CXX_COMPILER_ID; the vector tiers are built
# by GCC only. Exits 77 (skip) on a non-GCC build, off x86-64, or without
# objdump.
set -eu
[ $# -ge 2 ] || { echo "usage: $0 COMPILER_ID LIBRARY_OR_OBJECT..."; exit 2; }
compiler=$1
shift
if [ "$compiler" != GNU ]; then
  echo "skip: the vector tiers are built by GCC only (compiler: $compiler)"
  exit 77
fi
case "$(uname -m)" in
  x86_64|amd64) ;;
  *) echo "skip: not an x86-64 host"; exit 77 ;;
esac
command -v objdump >/dev/null 2>&1 || { echo "skip: no objdump"; exit 77; }
for f in "$@"; do
  [ -r "$f" ] || { echo "cannot read $f"; exit 2; }
done

objdump -d -C --no-show-raw-insn "$@" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", fn)
    if (fn ~ /::\(anonymous namespace\)::avx2::/) tier = "avx2"
    else if (fn ~ /::\(anonymous namespace\)::avx512::/) tier = "avx512"
    else tier = "baseline"
    if (tier != "baseline") tiers[tier]++
    next
  }
  /^ +[0-9a-f]+:\t/ {
    insn = substr($0, index($0, "\t") + 1)
    sub(/<.*$/, "", insn)  # drop symbolic call and jump targets
    n = split(insn, word, /[ \t]+/)
    op = word[1]
    # Skip instruction prefixes to reach the mnemonic.
    for (i = 1; i < n && op ~ /^(rep|repz|repe|repnz|repne|lock|notrack|bnd|data16|addr32|cs|ds|ss|es|fs|gs)$/; )
      op = word[++i]
    bad = ""
    if (tier == "baseline") {
      if (op ~ /^v/ || op == "popcnt" || op == "pdep" ||
          insn ~ /%[yz]mm[0-9]/ || insn ~ /%k[0-7]([^0-9]|$)/)
        bad = "outside the tier namespaces"
    } else if (tier == "avx2") {
      if (op == "pdep" || insn ~ /%zmm[0-9]/ || insn ~ /%k[0-7]([^0-9]|$)/)
        bad = "in the avx2 tier"
    }
    if (bad != "") {
      if (!(fn in seen)) {
        seen[fn] = 1
        printf "LEAK %s: %s\n  %s\n", bad, fn, insn
      }
      leaks++
    }
  }
  END {
    if (tiers["avx2"] == 0 || tiers["avx512"] == 0) {
      print "BUG: no avx2 or avx512 tier functions found - check the namespace match"
      exit 1
    }
    if (leaks > 0) {
      printf "kernel ISA isolation FAILED: %d instructions\n", leaks
      exit 1
    }
    printf "kernel ISA isolation OK (%d avx2 and %d avx512 tier functions)\n",
           tiers["avx2"], tiers["avx512"]
  }'
