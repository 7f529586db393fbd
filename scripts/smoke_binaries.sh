#!/usr/bin/env sh
# Smoke run of every shipped binary: each bench/ campaign (except the
# micro_engine perf harness) and each examples/ program runs once on a fixed
# small grid. Each binary's stdout goes to <out-dir>/<name>.txt; any
# non-zero exit fails the script, naming the binary.
#
# Everything is deterministic, so running this against two builds and
# diffing the output directories (`diff -r`) checks that a change keeps
# every campaign's output byte-identical. trace_and_group prints the paths
# of the files it writes into <out-dir>; only those lines may differ.
#
# CI runs it under ASan+UBSan (ASAN_OPTIONS=detect_leaks=0).
#
# Usage: smoke_binaries.sh <build-dir> <out-dir>
set -eu

build=$1
out=$2
mkdir -p "$out"

run() {
  dir=$1
  name=$2
  shift 2
  echo "smoke: $name $*" >&2
  if ! "$build/$dir/$name" "$@" > "$out/$name.txt"; then
    echo "smoke: $name FAILED" >&2
    exit 1
  fi
}

run bench ablation_dynamic_grouping --procs 16 --jobs 2
run bench ablation_elastic --procs 8 --reps 1 --requests 120 --rate 10 \
    --first-at 1 --interval 3 --mtbd 5 --outage 2.5 --warning 1.5 --jobs 2
run bench ablation_failures --procs 16 --intervals 15,60 --reps 1 --jobs 2
run bench ablation_group_size --procs 16 --sizes 1,4,16 --reps 1 --jobs 2
run bench ablation_intervals --procs 16 --reps 1 --jobs 2
run bench ablation_multi_failure --procs 16 --reps 1 --jobs 2
run bench ablation_storage_tiers --procs 16 --reps 1 --jobs 2
run bench fig01_lam_coordination --procs 12,16 --reps 1 --jobs 2
run bench fig02_vcl_trace --procs 16 --jobs 2
run bench fig05_execution_time --procs 16,32 --reps 2 --jobs 2
run bench fig06_hpl_ckpt_restart --procs 16 --reps 1 --jobs 2
run bench fig07_resend_data --procs 16 --reps 1 --jobs 2
run bench fig08_resend_ops --procs 16 --reps 1 --jobs 2
run bench fig09_breakdown --procs 16 --reps 1 --jobs 2
run bench fig10_multi_ckpt --procs 16 --intervals 0,60 --n 20000 --reps 1 \
    --jobs 2
run bench fig11_cg --procs 16 --reps 1 --jobs 2
run bench fig12_sp --procs 16 --reps 1 --jobs 2
run bench fig13_scale_vcl --procs 16 --reps 1 --jobs 2
run bench fig14_avg_ckpt_time --procs 16 --reps 1 --jobs 2
run bench fig_scale_extrapolation --procs 16,32 \
    --topologies flat,fattree,dragonfly --modes NORM,GP,GP1 --reps 1 --jobs 2
run bench table1_group_formation --jobs 2

run examples failure_storm
run examples hpl_campaign --procs 16
run examples quickstart
run examples trace_and_group --procs 16 --trace-file "$out/cg.trace" \
    --group-file "$out/cg.groups"

echo "smoke: all binaries exited 0" >&2
