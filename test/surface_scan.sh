#!/bin/sh
# Library surface scan.  Flags each `val NAME` of lib/**/*.mli that no .ml
# under lib, bin, bench, examples or perfbench, other than the defining
# module's own .ml, contains as a whole word.  Aliases and opens still
# spell the bare name, so a called value is never flagged; a value whose
# name collides with another identifier can be missed.
#
#   test/surface_scan.sh          print the flagged values, "FILE NAME"
#   test/surface_scan.sh --check  fail unless the flagged values are
#                                 exactly those of surface_allowlist.txt
cd "$(dirname "$0")/.." || exit 2
srcs=$(find lib bin bench examples perfbench -name '*.ml' | sort)
scan() {
  for mli in $(find lib -name '*.mli' | sort); do
    others=$(echo "$srcs" | grep -vx "${mli%i}")
    for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
      grep -qw -- "$name" $others || echo "$mli $name"
    done
  done
}
[ "$1" = --check ] || { scan; exit 0; }
allowed=$(mktemp) && trap 'rm -f "$allowed"' EXIT
sed -e 's/#.*//' -e '/^ *$/d' test/surface_allowlist.txt | awk '{print $1, $2}' | sort >"$allowed"
scan | sort | diff - "$allowed" && exit 0
echo "surface scan: '<' is flagged but not allowlisted, '>' is allowlisted but not flagged"
exit 1
