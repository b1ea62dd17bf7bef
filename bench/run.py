"""Benchmark for the anchorkit CLI: seeded workloads timed end to end.

Run from the root of a checkout (no install needed; `src` is put on the
children's PYTHONPATH):

    python3 bench/run.py --workload match_crowd --seed 1 --seconds 28 --trace 0

One run generates the workload's inputs from the seed, then runs rounds in a
closed loop of one client (the next `python -m anchorkit.cli` starts when the
previous one exits) for about --seconds. A round is a few set-up invocations
(the same subcommand on a one-face input: interpreter start, imports,
argparse, design construction) followed by one workload invocation, so set-up
and workload times sample the same phases of a host whose speed drifts.
Every invocation's output is checked (see checks.py) and its stdout sha256
must match the digest first recorded for that (workload, seed) in
.bench_out/digests.json.

With --trace 0 the last stdout line reports the end-to-end metrics: median
wall time, median set-up time, faces per second of non-set-up time (faces in
the output over the median of each round's workload wall minus that round's
median set-up; simulate_crops also records crops per second in the detail
line) and median peak RSS. With --trace 1 it reports per-layer metrics
instead, from one extra traced in-process run (tracing.py) and a kernel sweep
(sweep.py). Some per-layer values are fixed by the inputs of a seed
(INPUT_FIXED): they must be equal across runs of one seed, and a change in
them means the workload changed, whatever their "better" field says. The
line before the result, also appended to .bench_out/results.jsonl, records
the machine, the corpus statistics, every invocation's time, the layer
shares and the kernel's tail percentile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checks import check_invocation
from sweep import metric_names as sweep_metric_names
from tracing import INPUT_FIXED, layer_metrics
from workloads import GENERATORS, SIM_CROPS, Corpus, cli_args, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS_PER_ROUND = 3
MIN_ROUNDS = 3
BUDGET_S = 150.0  # hard cap on one run, inside the 180 s the contract allows


@dataclass
class Invocation:
    kind: str
    wall_s: float
    rss_mb: float
    stdout: bytes
    problems: list


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _spawn(cmd: list[str], work: Path, timeout: float) -> tuple[float, float, int, bytes, bytes]:
    """Run cmd to completion: (wall s, peak RSS MB, exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        status = None
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if status is None:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes(), err_path.read_bytes()


class Runner:
    """Runs and checks invocations for one (workload, seed)."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.seed, self.work, self.deadline = workload, seed, work, deadline
        self.invocations: list[Invocation] = []
        self.digests_path = OUT / "digests.json"
        self.digests = json.loads(self.digests_path.read_text()) if self.digests_path.exists() else {}
        self._checked: dict = {}

    def run(self, kind: str, cmd: list[str], corpus: Corpus | None, crops: int = 0) -> Invocation:
        wall, rss, code, stdout, stderr = _spawn(cmd, self.work, self.deadline - time.perf_counter())
        problems = []
        if corpus is not None:
            digest = hashlib.sha256(stdout).hexdigest()
            key = (digest, code, b"Traceback" in stderr)
            if key not in self._checked:  # identical bytes, identical verdict
                self._checked[key] = check_invocation(self.workload, corpus, crops, code, stdout, stderr)
            problems = list(self._checked[key])
            if not problems:
                label = f"{self.workload}:{self.seed}" + (":setup" if kind == "setup" else "")
                recorded = self.digests.setdefault(label, digest)
                if digest != recorded:
                    problems.append(f"stdout sha256 {digest[:16]} != recorded {recorded[:16]}")
        elif code != 0 or b"Traceback" in stderr:
            problems.append(f"exit code {code}: {stderr.decode(errors='replace')[-300:]}")
        inv = Invocation(kind, wall, rss, stdout, problems)
        self.invocations.append(inv)
        return inv

    def save_digests(self) -> None:
        tmp = self.digests_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
        os.replace(tmp, self.digests_path)


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version}


def _write_inputs(work: Path, stem: str, corpus: Corpus) -> tuple[str, str]:
    ann, dims = work / f"{stem}.txt", work / f"{stem}.csv"
    ann.write_text(corpus.annotation_text(), encoding="utf-8")
    dims.write_text(corpus.dims_text(), encoding="utf-8")
    return str(ann), str(dims)


def bench(args: argparse.Namespace, work: Path, deadline: float) -> tuple[dict, dict]:
    """One run: returns (metric values, detail record)."""
    corpus = generate(args.workload, args.seed)
    setup_corpus = generate(args.workload, args.seed, setup=True)
    cli = [sys.executable, "-m", "anchorkit.cli"]
    run_args = cli_args(args.workload, *_write_inputs(work, "input", corpus))
    setup_args = cli_args(args.workload, *_write_inputs(work, "setup", setup_corpus), setup=True)
    runner = Runner(args.workload, args.seed, work, deadline)

    loop_end = time.perf_counter() + args.seconds
    walls: list[float] = []
    busy: list[float] = []  # each round's workload wall minus its median set-up
    round_s: list[float] = []
    while True:
        t0 = time.perf_counter()
        setups = [runner.run("setup", cli + setup_args, setup_corpus, crops=1).wall_s
                  for _ in range(SETUPS_PER_ROUND)]
        walls.append(runner.run("workload", cli + run_args, corpus, crops=SIM_CROPS).wall_s)
        busy.append(walls[-1] - statistics.median(setups))
        round_s.append(time.perf_counter() - t0)
        next_end = time.perf_counter() + statistics.median(round_s)
        if next_end > deadline or (len(walls) >= MIN_ROUNDS and next_end > loop_end):
            break

    loop = [i for i in runner.invocations if i.kind == "workload"]
    setup_walls = [i.wall_s for i in runner.invocations if i.kind == "setup"]
    wall = statistics.median(walls)
    work_s = statistics.median(busy)
    if work_s <= 0:
        work_s = wall
    kept = len(corpus.kept_faces())
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_walls),
        "faces_per_s": kept / work_s,
        "peak_rss_mb": statistics.median(i.rss_mb for i in loop),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_info(),
        "corpus": corpus.stats(),
        "argv": run_args,
        "stdout_sha256": hashlib.sha256(loop[0].stdout).hexdigest(),
        "walls_s": walls,
        "peak_rss_mb": [i.rss_mb for i in loop],
        "setup_walls_s": setup_walls,
    }
    if args.workload == "simulate_crops":
        detail["crops_per_s"] = len(corpus.images) * SIM_CROPS / work_s

    if args.trace:
        spans = work / "spans.json"
        traced = runner.run("traced", [sys.executable, str(BENCH / "tracing.py"), str(spans)] + run_args,
                            corpus, crops=SIM_CROPS)
        sweep = runner.run("sweep", [sys.executable, str(BENCH / "sweep.py"), str(args.seed)], None)
        dump = (json.loads(spans.read_text()) if spans.exists() else
                {"harness_s": 0.0, "trace": {"spans": [], "counters": {}, "distinct_canvases": 0}})
        values, layer_detail = layer_metrics(dump["trace"])
        values.update(json.loads(sweep.stdout) if not sweep.problems
                      else dict.fromkeys(sweep_metric_names(), 0.0))
        # The traced process also runs the counting hooks and serialises the
        # spans; that harness time is not the wrappers' cost, so it is taken out.
        values["trace.overhead_s"] = traced.wall_s - wall - dump["harness_s"]
        detail.update(layer_detail)
        detail["trace_harness_s"] = dump["harness_s"]
        detail["input_fixed"] = {k: values[k] for k in INPUT_FIXED}

    runner.save_digests()
    failed = [i for i in runner.invocations if i.problems]
    detail["attempted"] = len(runner.invocations)
    detail["failed"] = len(failed)
    detail["problems"] = [f"{i.kind}: {p}" for i in failed for p in i.problems][:10]
    return values, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anchorkit" / "cli.py").is_file():
        print(f"error: no anchorkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        values, detail = bench(args, work, started + BUDGET_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["metrics"] = values
    detail["run_s"] = time.perf_counter() - started
    line = json.dumps(detail)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
