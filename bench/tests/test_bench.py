"""Tests of the benchmark itself: generator, output checks and span arithmetic.

Run from the repository root: python -m pytest bench/tests
"""

import importlib
import json

import pytest

import checks
import tracing
import workloads

WORKLOADS = sorted(workloads.GENERATORS)


@pytest.fixture(scope="module")
def ams_corpus():
    return workloads.generate("ams_corpus", 11)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    other = workloads.generate(name, 8)
    assert a.annotation_text() == b.annotation_text()
    assert a.dims_text() == b.dims_text()
    assert a.annotation_text() != other.annotation_text()
    setup = workloads.generate(name, 7, setup=True)
    assert setup.stats()["kept_faces"] == 1


def test_ams_corpus_shape(ams_corpus):
    stats = ams_corpus.stats()
    assert 150_000 <= stats["faces"] <= 170_000
    assert stats["zero_count_blocks"] == 60
    assert stats["zero_width"] == 25
    assert stats["invalid"] == round(0.03 * stats["faces"])
    assert stats["kept_faces"] == len(ams_corpus.kept_faces())


@pytest.mark.parametrize("name", ["match_crowd", "match_sparse", "simulate_crops"])
def test_seeds_share_image_sizes_but_not_faces(name):
    corpora = [workloads.generate(name, s) for s in range(3)]
    per_image = [[(im.width, im.height, len(im.faces)) for im in c.images] for c in corpora]
    assert per_image[0] == per_image[1] == per_image[2]
    assert len({c.annotation_text() for c in corpora}) == 3


def _run_cli(tmp_path, name, crops):
    """A real output for the one-face input of a workload, via the in-process CLI."""
    from anchorkit import cli

    corpus = workloads.generate(name, 3, setup=True)
    ann, dims, out = tmp_path / "a.txt", tmp_path / "d.csv", tmp_path / "out"
    ann.write_text(corpus.annotation_text())
    dims.write_text(corpus.dims_text())
    argv = workloads.cli_args(name, str(ann), str(dims), setup=True)
    assert cli.main(argv + ["--out", str(out)]) == 0
    return corpus, out.read_bytes()


def _corrupt(name, stdout):
    text = stdout.decode()
    if name == "ams_corpus":
        return text.replace("/1\n", "/2\n").encode()
    out = json.loads(text)
    if name.startswith("match_"):
        out["n_anchors"] += 1
    else:
        out["per_face"][0]["crops_positive"] = 2  # more than the single crop
    return json.dumps(out).encode()


@pytest.mark.parametrize("name", WORKLOADS)
def test_checker_accepts_real_output_and_flags_corruption(tmp_path, name):
    corpus, stdout = _run_cli(tmp_path, name, crops=1)
    assert checks.check_invocation(name, corpus, 1, 0, stdout, b"") == []
    assert checks.check_invocation(name, corpus, 1, 0, _corrupt(name, stdout), b"")
    assert checks.check_invocation(name, corpus, 1, 0, stdout[: len(stdout) // 2], b"")
    assert checks.check_invocation(name, corpus, 1, 1, stdout, b"") == ["exit code 1"]
    assert checks.check_invocation(name, corpus, 1, 0, stdout, b"Traceback (most recent")


def test_iou_bound_closed_form():
    assert checks.iou_bound(1.0) == 1.0
    assert checks.iou_bound(4.0) == pytest.approx(1 / 3)
    assert checks.iou_bound(0.25) == checks.iou_bound(4.0)


def test_self_times_on_hand_built_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("corpus.parse_wider", 1.0, 3.0, 0),
        ("ams.run_ams", 4.0, 9.0, 0),
        ("ams.ideal_max_iou", 5.0, 6.0, 2),
        ("ams.ideal_max_iou", 7.0, 8.5, 2),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 2.5, 1.0, 1.5]
    metrics, detail = tracing.layer_metrics(
        {"spans": spans, "counters": {}, "distinct_canvases": 0})
    shares = detail["layer_shares"]
    assert metrics["cli.self_s"] == 3.0
    assert metrics["ams.run_ams.self_s"] == 2.5
    assert metrics["ams.ideal_max_iou.s"] == 2.5
    assert metrics["ams.ideal_max_iou.calls"] == 2
    assert metrics["corpus.parse_wider.s"] == 2.0
    assert shares["ams"] == 0.5 and shares["corpus"] == 0.2 and shares["cli"] == 0.3
    assert sum(shares.values()) == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("cli.main", 0.0, 10.0, -1), ("a.x", 1.0, 4.0, 0), ("a.y", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == 6.0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tracing.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert tracing.tail([float(v) for v in range(1, 1001)]) == (990.0, 99.0)
    assert tracing.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = {
        name: dict(vars(importlib.import_module(name))) for name in tracing.OWNERS
    }
    corpus = workloads.generate("match_sparse", 3, setup=True)
    ann, dims = tmp_path / "a.txt", tmp_path / "d.csv"
    ann.write_text(corpus.annotation_text())
    dims.write_text(corpus.dims_text())
    argv = workloads.cli_args("match_sparse", str(ann), str(dims))
    code, tracer = tracing.traced_main(argv + ["--out", str(tmp_path / "out")])
    assert code == 0
    for name in tracing.OWNERS:
        module = importlib.import_module(name)
        assert all(vars(module)[attr] is obj for attr, obj in before[name].items())
    names = {span[0] for span in tracer.spans}
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
    assert {"corpus.parse_wider", "anchors.generate_anchor_boxes",
            "matching.assign_labels_xywh"} <= names
    assert tracer.counters["matching.faces_in"] == 1


def test_traced_metrics_match_the_declared_per_layer_metrics():
    import sweep
    from run import ROOT

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics, _ = tracing.layer_metrics({"spans": [], "counters": {}, "distinct_canvases": 0})
    produced = set(metrics) | set(sweep.metric_names()) | {"trace.overhead_s"}
    assert produced == declared
