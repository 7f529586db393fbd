#!/usr/bin/env sh
# Tier-1 verification: configure, build, and run the full test suite.
# Mirrors ROADMAP.md's verify line exactly; CI runs the same steps.
set -eu
cd "$(dirname "$0")/.."
# Documentation gate: dangling markdown links/anchors and stale
# `DESIGN.md §` references fail the build (skipped if python3 is absent).
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_docs.py
else
  echo "check.sh: python3 not found, skipping scripts/check_docs.py" >&2
fi
# Bench ON so the golden regression gate (ctest: golden_equivalence;
# scripts/check_golden_equivalence.sh) builds and runs with the suite.
cmake -B build -S . -DGCR_BUILD_BENCH=ON && cmake --build build -j && cd build && ctest --output-on-failure -j
# Explicit gates on the randomized torture harnesses (also part of the
# ctest run above; CI additionally runs them under ASan+UBSan).
# fault_torture_test carries both the fault-only seeds and the churn
# torture (drains / reclaims / rolling restarts layered on faults).
./fault_torture_test
./topology_torture_test
# Elastic-service gates (DESIGN.md §16): churn semantics (drain != failure,
# checkpoint-on-warning, rolling coverage, rejoin + merge) and the service
# app's SLO/latency accounting.
./churn_test
./service_app_test
# Explicit golden gate (also the golden_equivalence ctest): fig05, fig13,
# the routed-fabric scale sweep, the storage-tier ablation, the elastic
# churn grid and the per-group interval ablation must match the committed
# goldens byte-for-byte.
sh ../scripts/check_golden_equivalence.sh \
  bench/fig05_execution_time bench/fig13_scale_vcl \
  bench/fig_scale_extrapolation bench/ablation_storage_tiers \
  bench/ablation_elastic bench/ablation_intervals ../tests/golden
