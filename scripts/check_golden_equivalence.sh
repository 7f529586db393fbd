#!/usr/bin/env sh
# Golden regression gate: four campaigns at a fixed small sweep must
# reproduce the committed outputs in tests/golden/ BYTE-identically.
#
#   fig05 — HPL, group protocol, flat fabric, direct local storage
#   fig13 — CG, VCL vs GP, direct remote (NFS) storage
#   scale — routed fabrics (fat-tree adaptive, dragonfly), NORM vs GP
#   tiers — direct/burst-buffer/drain storage with a mid-run group failure
#
# The flat/direct goldens pin the legacy network and storage arithmetic and
# engine event order; the scale and tiers goldens pin the routed fabric and
# the tier store. Every campaign runs with --jobs 4, so the gate also
# checks that worker count does not perturb output. Registered as the
# golden_equivalence ctest target when GCR_BUILD_BENCH=ON.
#
# Usage: check_golden_equivalence.sh <fig05-binary> <fig13-binary> \
#            <scale-binary> <tiers-binary> <golden-dir>
set -eu

fig05=$1
fig13=$2
scale=$3
tiers=$4
golden=$5

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$fig05" --procs 16,32 --reps 2 --jobs 4 > "$tmp/fig05.txt"
"$fig13" --procs 16,32 --reps 2 --jobs 4 > "$tmp/fig13.txt"
"$scale" --procs 16,32 --topologies fattree,dragonfly --modes NORM,GP \
    --reps 2 --jobs 4 > "$tmp/scale.txt"
"$tiers" --procs 16 --reps 2 --jobs 4 > "$tmp/tiers.txt"

diff -u "$golden/fig05_procs16_32_reps2.txt" "$tmp/fig05.txt"
diff -u "$golden/fig13_procs16_32_reps2.txt" "$tmp/fig13.txt"
diff -u "$golden/scale_extrapolation_procs16_32_reps2.txt" "$tmp/scale.txt"
diff -u "$golden/ablation_tiers_procs16_reps2.txt" "$tmp/tiers.txt"
echo "golden-equivalence: BYTE-IDENTICAL"
