#!/usr/bin/env sh
# Checks that two gcr_perfbench builds simulate a workload identically.
#
# Runs each binary for one untraced pass (--seconds 0 --trace 0) and diffs
# its per-job rows on every column except host_s, the only one measured on
# the host: mode, seed, events, sim_exec_s, sim_ckpt_s, sim_rst_s and the
# digest. Prints the differing rows and exits 1 on any difference; exits 2
# if a run fails or prints no job rows.
#
# Usage: compare_job_rows.sh <parent-gcr_perfbench> <change-gcr_perfbench> \
#            <workload> [seed]
# The seed defaults to 1. Binaries live in <checkout>/.bench_build/perfbench
# once `python3 perfbench/run.py` has built them there.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 <parent-gcr_perfbench> <change-gcr_perfbench> <workload> [seed]" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
seed=${4:-1}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Job rows follow the header line that starts with "mode"; the header
# names the columns, so host_s is dropped by name, not by position.
rows() {
  if ! "$1" --workload "$workload" --seed "$seed" --seconds 0 --trace 0 \
      > "$tmp/out" 2> "$tmp/err"; then
    cat "$tmp/err" >&2
    echo "compare_job_rows: $1 failed" >&2
    exit 2
  fi
  awk '
    $1 == "mode" {
      n = NF
      for (i = 1; i <= NF; i++) if ($i == "host_s") skip = i
      inrows = 1
    }
    inrows && NF != n { exit }
    inrows {
      line = ""
      for (i = 1; i <= NF; i++) if (i != skip) line = line " " $i
      print substr(line, 2)
    }
  ' "$tmp/out" > "$2"
  if [ "$(wc -l < "$2")" -lt 2 ]; then
    echo "compare_job_rows: $1 printed no job rows" >&2
    exit 2
  fi
}

rows "$parent" "$tmp/parent"
rows "$change" "$tmp/change"
jobs=$(($(wc -l < "$tmp/parent") - 1))
if diff "$tmp/parent" "$tmp/change"; then
  echo "compare_job_rows: $workload seed $seed: $jobs job rows identical"
else
  echo "compare_job_rows: $workload seed $seed: job rows differ" >&2
  exit 1
fi
