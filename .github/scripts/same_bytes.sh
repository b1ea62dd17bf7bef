#!/usr/bin/env bash
# Check that this checkout prints the same stdout bytes as a base commit on
# every benchmark workload.
#
# Usage, from the root of a git checkout:  .github/scripts/same_bytes.sh BASE
#
# BASE is a commit that git can resolve. The four benchmark workloads run at
# seeds 1, 11 and 73 (bench/run.py --seconds 1 --trace 0) in a git worktree
# of BASE, which records each stdout's sha256 in its .bench_out/digests.json.
# That file then replaces this checkout's, and the workloads run here again:
# each run must end with "correct": true and "failed": 0, which needs every
# stdout's sha256 to equal the one recorded at BASE. The workloads run
# simulate under warm only, so `simulate --strategy sam` and
# `--strategy sam_compensate` also run, at BASE and here, on the
# simulate_crops inputs of the same seeds (written by bench/workloads.py),
# and each stdout's sha256 must be equal. When bench/ differs between BASE
# and HEAD the workloads themselves may differ, so the check is skipped.
set -euo pipefail

base=$1
if ! git diff --quiet "$base" HEAD -- bench; then
  echo "bench/ differs from $base: output bytes not compared"
  exit 0
fi

tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" 2>/dev/null; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

check='
import json, sys
r = json.load(sys.stdin)
print(sys.argv[1], r["correct"], r["failed"], "of", r["attempted"])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
'
runs() {
  for workload in ams_corpus match_crowd match_sparse simulate_crops; do
    for seed in 1 11 73; do
      python3 bench/run.py --workload "$workload" --seed "$seed" --seconds 1 --trace 0 \
        | tail -n 1 | python3 -c "$check" "$1 $workload:$seed"
    done
  done
}

# One line per (seed, strategy): the sha256 of the stdout of the checkout at $1.
simulate_digests() {
  python3 - "$1" "$tmp" <<'EOF'
import hashlib, os, subprocess, sys
sys.path.insert(0, "bench")
from workloads import cli_args, generate
src, tmp = os.path.join(sys.argv[1], "src"), sys.argv[2]
for seed in (1, 11, 73):
    ann, dims = f"{tmp}/simulate_crops_{seed}.txt", f"{tmp}/simulate_crops_{seed}.csv"
    corpus = generate("simulate_crops", seed)
    with open(ann, "w", encoding="utf-8") as fh:
        fh.write(corpus.annotation_text())
    with open(dims, "w", encoding="utf-8") as fh:
        fh.write(corpus.dims_text())
    for strategy in ("sam", "sam_compensate"):
        argv = cli_args("simulate_crops", ann, dims) + ["--strategy", strategy]
        out = subprocess.run([sys.executable, "-m", "anchorkit.cli", *argv], check=True,
                             stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}).stdout
        print(f"simulate_crops:{seed} --strategy {strategy}", hashlib.sha256(out).hexdigest())
EOF
}

(cd "$tmp/base" && runs base)
mkdir -p .bench_out
cp "$tmp/base/.bench_out/digests.json" .bench_out/digests.json
runs head
simulate_digests "$tmp/base" > "$tmp/simulate_base.txt"
simulate_digests "$PWD" | tee "$tmp/simulate_head.txt"
diff "$tmp/simulate_base.txt" "$tmp/simulate_head.txt"
echo "simulate --strategy sam and sam_compensate: the same bytes as $base"
