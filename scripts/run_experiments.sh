#!/usr/bin/env bash
# Regenerate every experiment in DESIGN.md §7 and store outputs under
# target/experiments/. EXPERIMENTS.md records a snapshot of these.
#
# The experiment list is the `e<N>_…` [[bin]] names declared in
# crates/bench/Cargo.toml, run in numeric order, so adding or retiring
# an experiment is an edit to that manifest alone.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p target/experiments
mapfile -t experiments < <(
  sed -n 's/^name = "\(e[0-9][0-9]*_[A-Za-z0-9_]*\)"$/\1/p' crates/bench/Cargo.toml \
    | sort -t_ -k1.2,1n
)
if [ "${#experiments[@]}" -eq 0 ]; then
  echo "no e<N>_… [[bin]] entries found in crates/bench/Cargo.toml" >&2
  exit 1
fi
for e in "${experiments[@]}"; do
  echo "== $e =="
  cargo run --release -q -p qrel-bench --features experiments --bin "$e" \
    | tee "target/experiments/$e.txt"
  echo
done
