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
# and each stdout's sha256 must be equal. No workload writes JSON at corpus
# scale, so `ams --format json` and `match --design detector` (JSON by
# default) also run, at BASE and here, on the seed-1 ams_corpus inputs, and
# each stdout's sha256 must be equal too. So must those of `parse --emit` on
# the same annotations and of synthetic corpora, which no workload reads:
# `ams --synthetic 65536 --format csv`, `ams --synthetic 4096 --ar-list
# 0.25,1,4 --format json` and `coverage --synthetic 65536`. The match
# workloads run the detector design at `--tn 0.35` only, so `match --design
# ams --strategy sam_compensate` and `match --design ams --tn 0` (warm, the
# default strategy) run on the seed-1 match_sparse inputs (stride-1 grids,
# each under the grid cap), and `match --tn 0` on the seed-1 match_crowd
# inputs. Under `--tn 0` a face's bar is its positive threshold, and on the
# ams grids match cuts each canvas's images into many kernel calls; each
# stdout's sha256 must be equal as well. When bench/
# differs between BASE and HEAD the workloads themselves may differ, so the
# check is skipped.
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

# One line per command that runs outside the workloads: the sha256 of the
# stdout of the checkout at $1.
cli_digests() {
  python3 - "$1" "$tmp" <<'EOF'
import hashlib, os, subprocess, sys
sys.path.insert(0, "bench")
from workloads import cli_args, generate
src, tmp = os.path.join(sys.argv[1], "src"), sys.argv[2]

def inputs(workload, seed):
    ann, dims = f"{tmp}/{workload}_{seed}.txt", f"{tmp}/{workload}_{seed}.csv"
    corpus = generate(workload, seed)
    with open(ann, "w", encoding="utf-8") as fh:
        fh.write(corpus.annotation_text())
    with open(dims, "w", encoding="utf-8") as fh:
        fh.write(corpus.dims_text())
    return ann, dims

def digest(name, argv):
    out = subprocess.run([sys.executable, "-m", "anchorkit.cli", *argv], check=True,
                         stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src}).stdout
    print(name, hashlib.sha256(out).hexdigest())

for seed in (1, 11, 73):
    ann, dims = inputs("simulate_crops", seed)
    for strategy in ("sam", "sam_compensate"):
        digest(f"simulate_crops:{seed} --strategy {strategy}",
               cli_args("simulate_crops", ann, dims) + ["--strategy", strategy])
ann, dims = inputs("ams_corpus", 1)
digest("ams_corpus:1 ams --format json", cli_args("ams_corpus", ann, dims) + ["--format", "json"])
digest("ams_corpus:1 match --design detector",
       ["match", "--annotations", ann, "--dims", dims, "--design", "detector"])
digest("ams_corpus:1 parse --emit", ["parse", "--annotations", ann, "--emit"])
ann, dims = inputs("match_sparse", 1)
digest("match_sparse:1 match --design ams --strategy sam_compensate",
       ["match", "--annotations", ann, "--dims", dims, "--design", "ams",
        "--strategy", "sam_compensate"])
digest("match_sparse:1 match --design ams --tn 0",
       ["match", "--annotations", ann, "--dims", dims, "--design", "ams", "--tn", "0"])
ann, dims = inputs("match_crowd", 1)
digest("match_crowd:1 match --tn 0", cli_args("match_crowd", ann, dims) + ["--tn", "0"])
for argv in (["ams", "--synthetic", "65536", "--format", "csv"],
             ["ams", "--synthetic", "4096", "--ar-list", "0.25,1,4", "--format", "json"],
             ["coverage", "--synthetic", "65536"]):
    digest(" ".join(argv), argv)
EOF
}

(cd "$tmp/base" && runs base)
mkdir -p .bench_out
cp "$tmp/base/.bench_out/digests.json" .bench_out/digests.json
runs head
cli_digests "$tmp/base" > "$tmp/cli_base.txt"
cli_digests "$PWD" | tee "$tmp/cli_head.txt"
diff "$tmp/cli_base.txt" "$tmp/cli_head.txt"
echo "simulate --strategy sam and sam_compensate, ams and match JSON and parse --emit at" \
  "corpus scale, match on ams grids, under --tn 0 and on ams grids under --tn 0, and ams" \
  "and coverage on synthetic corpora: the same bytes as $base"
