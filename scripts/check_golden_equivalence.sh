#!/usr/bin/env sh
# Golden regression gate: six campaigns at a fixed small sweep must
# reproduce the committed outputs in tests/golden/ BYTE-identically.
#
#   fig05   — HPL, group protocol, flat fabric, direct local storage
#   fig13   — CG, VCL vs GP, direct remote (NFS) storage
#   scale   — routed fabrics (fat-tree adaptive, dragonfly), NORM vs GP
#   tiers   — direct/burst-buffer/drain storage with a mid-run group failure
#   elastic — the service app under drains, spot reclaims and rolling
#             restarts (splits, rejoins and planner merges)
#   intervals — per-group checkpoint intervals under a flaky group (the
#             per-group scheduler and fault-trace replay), default grid
#
# The flat/direct goldens pin the legacy network and storage arithmetic and
# engine event order; the scale and tiers goldens pin the routed fabric and
# the tier store; the elastic golden pins the churn regroup path; the
# intervals golden pins the per-group checkpoint schedule. Every
# campaign runs with --jobs 4, so the gate also checks that worker count
# does not perturb output. Registered as the golden_equivalence ctest
# target when GCR_BUILD_BENCH=ON.
#
# Usage: check_golden_equivalence.sh <fig05-binary> <fig13-binary> \
#            <scale-binary> <tiers-binary> <elastic-binary> \
#            <intervals-binary> <golden-dir>
set -eu

fig05=$1
fig13=$2
scale=$3
tiers=$4
elastic=$5
intervals=$6
golden=$7

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$fig05" --procs 16,32 --reps 2 --jobs 4 > "$tmp/fig05.txt"
"$fig13" --procs 16,32 --reps 2 --jobs 4 > "$tmp/fig13.txt"
"$scale" --procs 16,32 --topologies fattree,dragonfly --modes NORM,GP \
    --reps 2 --jobs 4 > "$tmp/scale.txt"
"$tiers" --procs 16 --reps 2 --jobs 4 > "$tmp/tiers.txt"
"$elastic" --procs 8 --reps 1 --requests 120 --rate 10 --first-at 1 \
    --interval 3 --mtbd 5 --outage 2.5 --warning 1.5 --jobs 4 \
    > "$tmp/elastic.txt"
"$intervals" --jobs 4 > "$tmp/intervals.txt"

diff -u "$golden/fig05_procs16_32_reps2.txt" "$tmp/fig05.txt"
diff -u "$golden/fig13_procs16_32_reps2.txt" "$tmp/fig13.txt"
diff -u "$golden/scale_extrapolation_procs16_32_reps2.txt" "$tmp/scale.txt"
diff -u "$golden/ablation_tiers_procs16_reps2.txt" "$tmp/tiers.txt"
diff -u "$golden/ablation_elastic_procs8.txt" "$tmp/elastic.txt"
diff -u "$golden/ablation_intervals_default.txt" "$tmp/intervals.txt"
echo "golden-equivalence: BYTE-IDENTICAL"
