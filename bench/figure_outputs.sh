#!/usr/bin/env bash
# Runs the figure, ablation and fault-harness programs at fixed arguments
# and writes each one's stdout to <out-dir>/<program>.txt. Every program
# is seeded, so two builds of the same code give byte-identical files and
# a before/after comparison of two builds is one `diff -r`:
#
#   bench/figure_outputs.sh build-before out-before
#   bench/figure_outputs.sh build-after  out-after
#   diff -r out-before out-after
#
# Takes several minutes on a Release build (the three Fig. 7 runs at 40
# packets per group dominate), so it is not part of ctest.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$1
out=$2
mkdir -p "$out"

run() {
  local name=$1 binary=$2
  shift 2
  echo "$name $*" >&2
  "$build/$binary" "$@" > "$out/$name.txt"
}

run fig7a_office      bench/fig7a_office 1 40
run fig7b_nlos        bench/fig7b_nlos 1 40
run fig7c_corridor    bench/fig7c_corridor 1 40
run fig8a_aoa         bench/fig8a_aoa 1
run fig8b_selection   bench/fig8b_selection 1
run fig5c_clusters    bench/fig5c_clusters 1 170
run ablation_weights  bench/ablation_weights 1
run spectrum_explorer examples/spectrum_explorer
run ap_outage         examples/ap_outage 1 6
run fault_matrix      bench/fault_matrix 1 6
