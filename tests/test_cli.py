import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anchorkit.ams
import anchorkit.anchors
import anchorkit.cli
from anchorkit import matching
from anchorkit.anchors import (
    ams_design,
    detector_design,
    generate_anchor_boxes,
    ladder_design,
    load_design,
)
from anchorkit.ams import run_ams
from anchorkit.cli import build_parser, main
from anchorkit.corpus import (MAX_SYNTHETIC_FACES, LogUniformAR, attach_dims, generate_synthetic,
                              parse_wider, read_dims_csv)
from anchorkit.matching import MatchConfig, Strategy, assign_labels_xywh
from anchorkit.reports import emit_reports

from oracles import naive_match_report

FIXTURE = str(Path(__file__).parent / "data" / "wider_50.txt")

MINI = "a.jpg\n2\n10 20 30 40 0 0 0 0 0 0\n50 60 20 44 0 0 0 0 1 0\nb.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"


@pytest.fixture
def mini_file(tmp_path):
    p = tmp_path / "mini.txt"
    p.write_text(MINI, encoding="utf-8")
    return str(p)


# Image paths that a CSV cell must quote: one holds a comma, one quotes.
QUOTED_PATHS = ("0--Parade/a,b.jpg", 'say "hi".jpg')


@pytest.fixture
def quoted_paths_file(tmp_path):
    p = tmp_path / "quoted.txt"
    p.write_text("".join(f"{path}\n1\n10 20 30 40 0 0 0 0 0 0\n" for path in QUOTED_PATHS),
                 encoding="utf-8")
    return str(p)


def csv_rows(text: str) -> list[list[str]]:
    """The rows the csv module reads from text."""
    return list(csv.reader(io.StringIO(text, newline="")))


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["ams", "match", "simulate", "rfd", "parse", "coverage"]
    )
    def test_subcommand_help_lists_defaults(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default" in text

    def test_match_defaults_equal_config_defaults(self):
        args = build_parser().parse_args(["match", "--annotations", "x"])
        cfg = MatchConfig()
        assert args.strategy == cfg.strategy.value
        assert args.tp == cfg.t0
        assert args.tn == cfg.tn
        assert args.delta == cfg.delta
        assert args.eta0 == cfg.eta0
        assert args.eta1 == cfg.eta1
        assert args.anchor_ar == cfg.anchor_ar

    def test_scale_step_default_displayed(self, capsys):
        for cmd in ("ams", "match"):
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            assert "1.4142135624" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", [["ams"], ["match", "--design", "ams"]])
    def test_printed_scale_step_default_reproduces_the_default(self, cmd, tmp_path, capsys):
        # The printed default is 2.7e-11 from sqrt(2); it must still give the
        # exact half-power ladder, not the power form's sizes.
        ann = tmp_path / "one.txt"
        ann.write_text("a.jpg\n1\n10 12 40 60 0 0 0 0 0 0\n", encoding="utf-8")
        outs = []
        for step in ([], ["--scale-step", "1.4142135624"]):
            assert main(cmd + ["--annotations", str(ann), "--format", "json", *step]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_a_step_farther_from_sqrt2_gets_its_own_ladder(self, capsys):
        # Each step prints the bytes of run_ams on the design it selects.
        synthetic = generate_synthetic(0, 64, LogUniformAR(0.2, 5.0))

        def printed(step):
            assert main(["ams", "--synthetic", "64", "--format", "json",
                         "--scale-step", step]) == 0
            return capsys.readouterr().out

        def rendered(design):
            report, table = run_ams(synthetic, design, 0.5)
            return emit_reports(report, "json", table)

        far, near = rendered(ladder_design(1.0, scale_step=1.41421356)), rendered(ams_design(1.0))
        assert far != near
        assert printed("1.41421356") == far
        assert printed("1.4142135624") == near


class TestRfdCommand:
    def test_param_count_table(self, capsys):
        assert main(["rfd", "--channels", "64"]) == 0
        out = capsys.readouterr().out
        assert "14336" in out

    def test_json_format(self, capsys):
        assert main(["rfd", "--channels", "64", "--format", "json", "--bias"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["param_count"] == 14464
        assert data["receptive_fields"] == [[3, 1], [1, 3], [3, 3], [5, 5], [1, 1]]

    def test_invalid_channels_exit_1(self, capsys):
        assert main(["rfd", "--channels", "6"]) == 1
        assert "error" in capsys.readouterr().err

    def test_wide_columns_stay_separated(self, capsys):
        # Each padded column ends in a space, also at 6 digits.
        assert main(["rfd", "--channels", "400000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "0     1x1 400000->100000 3x1 100000->100000 3x1"
        assert lines[6] == "3     1x1 400000->100000 5x5 100000->100000 5x5"


class TestParseCommand:
    def test_summary(self, capsys):
        assert main(["parse", "--annotations", FIXTURE]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_images"] == 50
        assert data["n_invalid"] == 1
        assert data["n_degenerate"] == 1

    def test_emit_round_trip(self, capsys):
        assert main(["parse", "--annotations", FIXTURE, "--emit"]) == 0
        out = capsys.readouterr().out
        assert out == Path(FIXTURE).read_text(encoding="utf-8")

    def test_missing_file_exit_2(self, capsys):
        assert main(["parse", "--annotations", "/nonexistent/f.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_exit_1_with_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("a.jpg\n2\n10 20 30 40 0 0 0 0 0 0\n", encoding="utf-8")
        assert main(["parse", "--annotations", str(p)]) == 1
        assert "line 4" in capsys.readouterr().err


class TestAmsCommand:
    def test_table_plus_per_face_csv(self, mini_file, capsys):
        assert main(["ams", "--annotations", mini_file, "--tp", "0.5", "--anchor-ar", "1.0"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].split() == ["Tp", "Ra", "Range", "ARSD", "matched"]
        assert "image,face,ar,width,max_iou,matched" in lines
        assert any(line.startswith("a.jpg,0,") for line in lines)

    def test_json_with_per_face(self, mini_file, capsys):
        assert main(["ams", "--annotations", mini_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert len(data["per_face"]) == 2

    def test_csv_format_is_per_face_schema(self, mini_file, capsys):
        assert main(["ams", "--annotations", mini_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "image,face,ar,width,max_iou,matched"
        assert len(lines) == 3

    def test_csv_quotes_paths(self, quoted_paths_file, capsys):
        # Each row keeps its six cells under the six names of the header.
        assert main(["ams", "--annotations", quoted_paths_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == ['"0--Parade/a,b.jpg",0,1.333333,30.000000,0.759494,1',
                                        '"say ""hi"".jpg",0,1.333333,30.000000,0.759494,1']
        header, *body = csv_rows(out)
        assert header == "image,face,ar,width,max_iou,matched".split(",")
        assert [row[0] for row in body] == list(QUOTED_PATHS)
        assert all(len(row) == len(header) for row in body)

    def test_no_per_face_means_summary_only(self, mini_file, capsys):
        assert main(["ams", "--annotations", mini_file, "--format", "csv", "--no-per-face"]) == 0
        assert capsys.readouterr().out == (
            "t_p,anchor_ar,n_faces,n_matched,matched_ar_min,matched_ar_max,fitted_eta,analytic_eta\n"
            "0.500000,1.000000,2,2,1.333333,2.200000,2.200000,2.250000\n"
        )
        assert main(["ams", "--annotations", mini_file, "--format", "json", "--no-per-face"]) == 0
        assert "per_face" not in json.loads(capsys.readouterr().out)

    def test_byte_identical_invocations(self, mini_file, capsys):
        main(["ams", "--annotations", mini_file])
        first = capsys.readouterr().out
        main(["ams", "--annotations", mini_file])
        second = capsys.readouterr().out
        assert first == second

    def test_zero_threshold_json_is_strict(self, capsys):
        # The unbounded analytic_eta of t_p = 0 is written as null.
        assert main(["ams", "--synthetic", "3", "--tp", "0", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert data["analytic_eta"] is None

    def test_synthetic_corpus_deterministic(self, capsys):
        argv = ["ams", "--synthetic", "50", "--seed", "3", "--tp", "0.5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert first == capsys.readouterr().out

    def test_out_file(self, mini_file, tmp_path, capsys):
        dest = tmp_path / "report.txt"
        assert main(["ams", "--annotations", mini_file, "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert "ARSD" in dest.read_text(encoding="utf-8")

    def test_requires_input(self, capsys):
        assert main(["ams"]) == 1
        assert "error" in capsys.readouterr().err


class TestMatchCommand:
    def test_json_summary_on_synthetic(self, capsys):
        rc = main(
            ["match", "--synthetic", "10", "--seed", "5", "--strategy", "warm",
             "--delta", "0.1", "--eta1", "3.0"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["strategy"] == "warm"
        assert data["n_faces"] == 10
        total = sum(data["labels"][k] for k in ("positive", "negative", "ignore"))
        assert total == data["n_anchors"]

    def test_csv_per_face(self, mini_file, capsys):
        assert main(["match", "--annotations", mini_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "image,face,ar,max_iou,positive_count,effective_tp"
        assert len(lines) == 3

    def test_csv_quotes_paths(self, quoted_paths_file, capsys):
        assert main(["match", "--annotations", quoted_paths_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header, *body = csv_rows(out)
        assert header == "image,face,ar,max_iou,positive_count,effective_tp".split(",")
        assert [row[:2] for row in body] == [[path, "0"] for path in QUOTED_PATHS]
        assert all(len(row) == len(header) for row in body)
        assert out.splitlines()[2].startswith('"say ""hi"".jpg",0,1.333333,')
        # JSON writes the paths as they are.
        assert main(["match", "--annotations", quoted_paths_file]) == 0
        per_face = json.loads(capsys.readouterr().out)["per_face"]
        assert [row["image"] for row in per_face] == list(QUOTED_PATHS)

    def test_bad_config_exit_1(self, mini_file, capsys):
        assert main(["match", "--annotations", mini_file, "--tp", "0.3", "--tn", "0.4"]) == 1

    @pytest.mark.parametrize("strategy", ["sam", "sam_compensate"])
    def test_delta_unread_outside_warm(self, strategy, mini_file, capsys):
        # t0 - delta = 0.3 is below tn = 0.35, which bounds WARM's band only.
        argv = ["match", "--annotations", mini_file, "--strategy", strategy, "--tp", "0.4",
                "--format", "csv"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--delta", "0"]) == 0
        assert capsys.readouterr().out == out

    def test_one_grid_per_distinct_canvas(self, tmp_path, capsys, monkeypatch):
        # Five images with faces on two canvases, plus one with none: two
        # grids, and one kernel call per canvas, each image its own group.
        names = ["a", "b", "c", "d", "e", "f"]
        ann = tmp_path / "ann.txt"
        ann.write_text("".join(f"{n}.jpg\n1\n{10 + i} 20 30 40 0 0 0 0 0 0\n" for i, n in
                               enumerate(names[:5])) + "f.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n",
                       encoding="utf-8")
        dims = tmp_path / "dims.csv"
        dims.write_text("".join(f"{n}.jpg,{w},{h}\n" for n, (w, h) in
                                zip(names, [(640, 480), (320, 320), (640, 480), (640, 480),
                                            (320, 320), (128, 128)])), encoding="utf-8")
        argv = ["match", "--annotations", str(ann), "--dims", str(dims), "--format", "csv"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        built, kernel = [], []

        def counted(grid, faces, cfg, group, plan):
            kernel.append(((grid.image_w, grid.image_h), group.tolist()))
            return assign_labels_xywh(grid, faces, cfg, group=group, plan=plan)

        monkeypatch.setattr(anchorkit.ams, "generate_anchor_boxes",
                            lambda d, w, h: built.append((w, h)) or generate_anchor_boxes(d, w, h))
        monkeypatch.setattr(anchorkit.ams, "assign_labels_xywh", counted)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert built == [(640.0, 480.0), (320.0, 320.0)]
        # a, c and d share the first canvas; b and e the second.
        assert kernel == [(built[0], [0, 1, 2]), (built[1], [0, 1])]


# Anchors of 4 and 8 px every 16 px: a small face between them overlaps none.
SPARSE_DESIGN = '{"levels": [{"name": "P", "stride": 16, "sizes": [4.0, 8.0]}], "aspect_ratio": 1.0}'
CANVASES = ((64, 64), (96, 64), (128, 96))


def face_line(x, y, w, h, invalid=0):
    return f"{x} {y} {w} {h} 0 0 0 {invalid} 0 0\n"


@st.composite
def shared_canvas_corpora(draw):
    """Annotation text and dims CSV text of up to 12 images on at most three
    canvases, so that many images share one. Faces may be small enough to
    fall between sparse anchors, degenerate or invalid; an image may keep
    no face or hold none."""
    ann, dims = [], []
    for k in range(draw(st.integers(1, 12))):
        w, h = draw(st.sampled_from(CANVASES))
        side = st.integers(0, 3) | st.integers(1, 48)
        faces = draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1), side,
                                        side, st.sampled_from([0, 0, 0, 1])), max_size=6))
        ann.append(f"img{k}.jpg\n{len(faces)}\n")
        ann.extend(face_line(*face) for face in faces)
        if not faces:
            ann.append(face_line(0, 0, 0, 0))
        dims.append(f"img{k}.jpg,{w},{h}\n")
    return "".join(ann), "".join(dims)


class TestMatchRunsPerCanvas:
    """match labels the images of each canvas in runs of whole images, cut
    by the per-face pairs bound of the canvas's one plan
    (matching.plan_faces), one kernel call per run; its bytes must equal
    those of one call per image (oracles.naive_match_report) in every
    format."""

    def check(self, tmp, ann_text, dims_text, design, strategy, tn):
        root = Path(tmp)
        (root / "ann.txt").write_text(ann_text, encoding="utf-8")
        (root / "sparse.json").write_text(SPARSE_DESIGN, encoding="utf-8")
        design_arg = str(root / "sparse.json") if design == "sparse" else "detector"
        argv = ["match", "--annotations", str(root / "ann.txt"), "--strategy", strategy,
                "--tn", tn, "--design", design_arg]
        with open(root / "ann.txt", encoding="utf-8") as fh:
            records = parse_wider(fh)
        if dims_text is not None:
            (root / "dims.csv").write_text(dims_text, encoding="utf-8")
            argv += ["--dims", str(root / "dims.csv")]
            records = attach_dims(records, read_dims_csv(str(root / "dims.csv")))
        cfg = MatchConfig(strategy=Strategy(strategy), tn=float(tn))
        anchors = detector_design() if design == "detector" else load_design(design_arg)
        want = naive_match_report(records, anchors, cfg)
        for fmt in ("json", "csv", "table"):
            out = root / f"out.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == emit_reports(want, fmt).encode("utf-8"), fmt
        return want

    @given(corpus=shared_canvas_corpora(), with_dims=st.booleans(),
           design=st.sampled_from(["detector", "sparse"]),
           strategy=st.sampled_from(["sam", "sam_compensate", "warm"]),
           tn=st.sampled_from(["0", "0.35"]), budget=st.sampled_from([1, 300, 2**40]))
    @settings(max_examples=80)
    def test_equals_one_call_per_image(self, corpus, with_dims, design, strategy, tn, budget):
        # Without dims each image gets the fallback canvas of its faces.
        ann_text, dims_text = corpus
        calls, kernel = [], anchorkit.ams.assign_labels_xywh

        def counted(grid, faces, cfg, group, plan):
            calls.append(group)
            return kernel(grid, faces, cfg, group=group, plan=plan)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "RUN_PAIRS", budget)
            mp.setattr(anchorkit.ams, "assign_labels_xywh", counted)
            want = self.check(tmp, ann_text, dims_text if with_dims else None, design,
                              strategy, tn)
        # Each of the three formats labels every image that keeps a face as
        # one whole set of one call, the sets of a call numbered from 0.
        assert sum(g[-1] + 1 for g in calls) == 3 * want.n_images
        assert all(np.array_equal(np.unique(g), np.arange(g[-1] + 1)) and
                   (np.diff(g) >= 0).all() for g in calls)

    @pytest.mark.parametrize("tn", ["0", "0.35"])
    @pytest.mark.parametrize("strategy", ["sam", "sam_compensate", "warm"])
    def test_faces_that_overlap_no_anchor(self, strategy, tn, tmp_path):
        # Four images on one 64x64 canvas, each with a 2x2 face between the
        # sparse anchors; two also hold a face that fits an anchor. Under
        # compensation each off-grid face claims the first row of its own
        # image's grid, so four rows are compensated, one per image.
        off, on = face_line(12, 12, 2, 2), face_line(4, 4, 8, 8)
        images = [[off], [off, on], [on, off], [off]]
        ann = "".join(f"i{k}.jpg\n{len(faces)}\n" + "".join(faces)
                      for k, faces in enumerate(images))
        dims = "".join(f"i{k}.jpg,64,64\n" for k in range(len(images)))
        want = self.check(tmp_path, ann, dims, "sparse", strategy, tn)
        assert want.n_images == 4 and len(want.per_face.face) == 6
        assert want.per_face.max_iou.tolist().count(0.0) == 4
        assert want.labels["compensated"] == (4 if strategy == "sam_compensate" else 0)


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


LEVEL = '{"name": "P3", "stride": 8, "sizes": [8, 16]}'


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["match", "--delta", "nan"],
        ["match", "--eta0", "nan"],
        ["match", "--anchor-ar", "inf"],
        ["simulate", "--eta1", "inf"],
        ["ams", "--anchor-ar", "inf"],
        ["ams", "--anchor-ar", "nan"],
        ["match", "--design", "NaN"],
        ["match", "--design", '"nan"'],
    ])
    def test_non_finite_rejected(self, argv, mini_file, tmp_path, capsys):
        if argv[1] == "--design":
            # The parameter is the design file's aspect_ratio literal.
            design = tmp_path / "design.json"
            design.write_text('{"levels": [%s], "aspect_ratio": %s}' % (LEVEL, argv[2]),
                              encoding="utf-8")
            argv = argv[:2] + [str(design)]
        assert main(argv + ["--annotations", mini_file]) == 1
        _one_error_line(capsys)

    @pytest.mark.parametrize("argv, field", [
        (["simulate", "--synthetic", "2", "--crops", "1", "--output-side", "nan"], "output_side"),
        (["simulate", "--synthetic", "2", "--crops", "1", "--output-side", "inf"], "output_side"),
        (["ams", "--synthetic", "3", "--ar-list", "inf"], "aspect ratios"),
        (["ams", "--synthetic", "3", "--ar-list", "1.5,nan"], "aspect ratios"),
    ], ids=["output-side-nan", "output-side-inf", "ar-list-inf", "ar-list-nan"])
    def test_non_finite_crop_and_ar_flags_named(self, argv, field, capsys):
        # Refused where the value enters, not deep in grid or corpus generation.
        assert main(argv) == 1
        _one_error_line(capsys, field)

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--synthetic", "2", "--crops", "1", "--scales", ""], "--scales"),
        (["ams", "--synthetic", "3", "--ar-list", "1,2,x"], "--ar-list"),
    ], ids=["scales-empty", "ar-list-word"])
    def test_malformed_float_list_names_flag(self, argv, flag, capsys):
        assert main(argv) == 1
        _one_error_line(capsys, flag, repr(argv[-1]))

    @pytest.mark.parametrize("argv, flag", [
        (["ams", "--annotations", FIXTURE, "--synthetic", "3"], "--annotations"),
        (["match", "--synthetic", "2", "--dims", "/nonexistent.csv"], "--dims"),
        (["simulate", "--synthetic", "2", "--crops", "1", "--annotations", "a.txt",
          "--dims", "d.csv"], "--annotations"),
        (["coverage", "--annotations", "/nonexistent.txt", "--synthetic", "4"], "--annotations"),
    ], ids=["ams-annotations", "match-dims", "simulate-both", "coverage-annotations"])
    def test_synthetic_refuses_an_input_file(self, argv, flag, capsys):
        # --synthetic makes its own corpus, so a file given with it would be
        # ignored: refused before any file is opened.
        assert main(argv) == 1
        _one_error_line(capsys, "--synthetic", flag)

    @pytest.mark.parametrize("argv, flag, needle", [
        (["ams", "--annotations", FIXTURE, "--ar-list", "1,2"], "--ar-list", "--synthetic"),
        (["ams", "--annotations", FIXTURE, "--ar-lo", "0.5"], "--ar-lo", "--synthetic"),
        (["coverage", "--annotations", FIXTURE, "--ar-hi", "9"], "--ar-hi", "--synthetic"),
        (["simulate", "--annotations", FIXTURE, "--ar-list", "1"], "--ar-list", "--synthetic"),
        (["ams", "--synthetic", "3", "--ar-list", "1,2", "--ar-lo", "0.5"], "--ar-lo",
         "--ar-list"),
        (["match", "--synthetic", "3", "--ar-list", "1,2", "--ar-hi", "9"], "--ar-hi",
         "--ar-list"),
        (["ams", "--annotations", FIXTURE, "--seed", "3"], "--seed", "--synthetic"),
        (["match", "--annotations", FIXTURE, "--seed", "0"], "--seed", "--synthetic"),
        (["coverage", "--annotations", FIXTURE, "--seed", "1"], "--seed", "--synthetic"),
    ], ids=["ams-ar-list", "ams-ar-lo", "coverage-ar-hi", "simulate-ar-list",
            "ar-lo-with-ar-list", "ar-hi-with-ar-list", "ams-seed", "match-seed",
            "coverage-seed"])
    def test_synthetic_flag_that_changes_nothing(self, argv, flag, needle, capsys):
        # A flag accepted and ignored would hide a mistake: each is refused
        # before any file is read, even one given its default value.
        # simulate's --seed also seeds its crops, so it stands without
        # --synthetic (see TestSimulateCommand).
        assert main(argv) == 1
        _one_error_line(capsys, flag, needle)

    @pytest.mark.parametrize("argv, bounds", [
        (["ams", "--synthetic", "3", "--ar-hi", "inf"], "hi=inf"),
        (["ams", "--synthetic", "3", "--ar-lo", "1e-320", "--ar-hi", "1"], "lo=1e-320"),
    ], ids=["ar-hi-inf", "ar-ratio-overflow"])
    def test_log_uniform_ar_bounds_named(self, argv, bounds, capsys):
        # An infinite bound, or hi/lo overflowing to inf, is refused by the law.
        assert main(argv) == 1
        _one_error_line(capsys, "aspect ratio bounds", bounds)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dims, scales, face", [
        ("5e-324", "1.0", "-1 -1 2 2"),
        ("0.5", "5e-324", "0 0 1 1"),
        ("0.5", "1e-310", "0 0 1 1"),
    ], ids=["subnormal-image", "zero-patch-side", "infinite-rescale"])
    def test_crop_patch_too_small_to_rescale(self, dims, scales, face, tmp_path, capsys):
        # Refused before any crop is drawn: no overflow warning, no traceback,
        # and no run that silently keeps no face.
        ann = tmp_path / "ann.txt"
        ann.write_text("a.jpg\n1\n%s 0 0 0 0 0 0\n" % face, encoding="utf-8")
        sidecar = tmp_path / "dims.csv"
        sidecar.write_text("a.jpg,%s,%s\n" % (dims, dims), encoding="utf-8")
        argv = ["simulate", "--annotations", str(ann), "--dims", str(sidecar),
                "--crops", "2", "--scales", scales]
        assert main(argv) == 1
        _one_error_line(capsys, "image 'a.jpg'", f"crop scale {float(scales)!r}")

    @pytest.mark.filterwarnings("error")
    def test_tiny_image_without_kept_faces_is_not_refused(self, tmp_path, capsys):
        ann = tmp_path / "ann.txt"
        ann.write_text("a.jpg\n1\n0 0 1 1 0 0 0 1 0 0\nb.jpg\n1\n0 0 8 8 0 0 0 0 0 0\n",
                       encoding="utf-8")
        sidecar = tmp_path / "dims.csv"
        sidecar.write_text("a.jpg,5e-324,5e-324\nb.jpg,64,64\n", encoding="utf-8")
        argv = ["simulate", "--annotations", str(ann), "--dims", str(sidecar), "--crops", "2"]
        assert main(argv) == 0
        assert [f["image"] for f in json.loads(capsys.readouterr().out)["per_face"]] == ["b.jpg"]

    @pytest.mark.parametrize("flag, value", [
        ("--eta", "nan"), ("--eta", "inf"), ("--eta", "1"), ("--eta", "0.5"),
        ("--anchor-ar", "nan"), ("--anchor-ar", "inf"), ("--anchor-ar", "0"),
    ])
    def test_coverage_domain_flags_named(self, flag, value, capsys):
        for fmt in ("text", "json"):
            assert main(["coverage", "--synthetic", "5", flag, value, "--format", fmt]) == 1
            _one_error_line(capsys, flag.lstrip("-").replace("-", "_"), value)

    @pytest.mark.parametrize("cmd", ["ams", "match", "simulate", "coverage"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_synthetic_named(self, cmd, n, capsys):
        assert main([cmd, "--synthetic", n]) == 1
        _one_error_line(capsys, "synthetic corpus size", n)

    @pytest.mark.parametrize("cmd", ["ams", "match", "simulate", "coverage"])
    @pytest.mark.parametrize("n", ["1048577", "1000000000000"])
    def test_synthetic_size_over_the_cap(self, cmd, n, capsys):
        # Refused before any face is drawn: 2**20 + 1 faces would hold
        # about 190 MB of columns.
        tracemalloc.start()
        try:
            assert main([cmd, "--synthetic", n]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        _one_error_line(capsys, "synthetic corpus size", n, str(MAX_SYNTHETIC_FACES))

    @pytest.mark.parametrize("cmd", ["parse", "ams", "coverage", "match"])
    def test_face_value_too_large_for_float_cites_line(self, cmd, tmp_path, capsys):
        ann = tmp_path / "big.txt"
        ann.write_text(MINI + "c.jpg\n1\n%s 20 30 40 0 0 0 0 0 0\n" % ("9" * 401), encoding="utf-8")
        assert main([cmd, "--annotations", str(ann)]) == 1
        _one_error_line(capsys, "line 10:", "too large")

    @pytest.mark.parametrize("size, aspect_ratio", [("1e-200", "1e-200"), ("1e200", "1e200"),
                                                    ("1e200", "1")])
    def test_zero_or_inf_anchor_height_rejected(self, size, aspect_ratio, mini_file, tmp_path, capsys):
        # size * aspect_ratio underflows to 0 or overflows to inf, or the
        # anchor's area overflows: the grid refuses the level where it is built.
        design = tmp_path / "design.json"
        design.write_text('{"levels": [{"name": "thin", "stride": 8, "sizes": [%s]}], '
                          '"aspect_ratio": %s}' % (size, aspect_ratio), encoding="utf-8")
        assert main(["match", "--annotations", mini_file, "--design", str(design)]) == 1
        _one_error_line(capsys, "level 'thin'")

    @pytest.mark.parametrize("text, field", [
        ('{"levels": [{"stride": 8, "sizes": [8]}], "aspect_ratio": 1}', "'name'"),
        ('{"aspect_ratio": 1}', "'levels'"),
        ('["P3", 8]', "JSON object"),
        ('{"levels": [%s], "aspect_ratio": %s}' % (LEVEL, "9" * 400), "too large"),
    ])
    def test_malformed_design_names_field(self, text, field, mini_file, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(text, encoding="utf-8")
        assert main(["match", "--annotations", mini_file, "--design", str(design)]) == 1
        _one_error_line(capsys, field)

    def test_ladder_length_capped(self, mini_file, capsys):
        # 1.0000001 would ask for about 48.5M rungs; refused by arithmetic alone.
        assert main(["ams", "--annotations", mini_file, "--scale-step", "1.0000001"]) == 1
        _one_error_line(capsys, "48520306")

    @pytest.mark.parametrize("design, step", [("detector", "0.5"), ("detector", "1.4142135624"),
                                              ("file", "7")])
    def test_scale_step_refused_unless_design_ams(self, design, step, mini_file, tmp_path,
                                                  capsys):
        # The step shapes the ams ladder only: under any other design it would
        # change nothing, so it is refused, even at its printed default.
        if design == "file":
            design = tmp_path / "design.json"
            design.write_text('{"levels": [%s], "aspect_ratio": 1}' % LEVEL, encoding="utf-8")
        argv = ["match", "--annotations", mini_file, "--design", str(design)]
        assert main(argv + ["--scale-step", step]) == 1
        _one_error_line(capsys, "--scale-step", "--design ams")
        assert main(argv) == 0

    @pytest.mark.parametrize("step", ["nan", "inf", "1", "0.5"])
    @pytest.mark.parametrize("argv", [["ams", "--synthetic", "200"],
                                      ["match", "--synthetic", "3", "--design", "ams"]])
    def test_scale_step_must_be_finite_above_one(self, argv, step, capsys):
        # A NaN step fails every comparison, so it must not pass for the
        # default ladder; no other step outside (1, inf) makes a ladder.
        assert main(argv + ["--scale-step", step]) == 1
        _one_error_line(capsys, "--scale-step", step)

    @pytest.mark.parametrize("levels, ok", [((1024,), True), ((1025,), False),
                                            ((512, 513), False)])
    def test_design_sizes_capped(self, levels, ok, mini_file, tmp_path, capsys):
        # A design file's sizes over all its levels share the ladder's cap,
        # refused when the design is built, before any grid or face pair.
        design = tmp_path / "design.json"
        first = 1
        parts = []
        for n in levels:
            sizes = ", ".join(str(float(first + k)) for k in range(n))
            parts.append('{"name": "L%d", "stride": 64, "sizes": [%s]}' % (len(parts), sizes))
            first += n
        design.write_text('{"levels": [%s], "aspect_ratio": 1}' % ", ".join(parts),
                          encoding="utf-8")
        argv = ["match", "--annotations", mini_file, "--design", str(design), "--format", "table"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if ok:
            assert code == 0, capsys.readouterr().err
            return
        assert code == 1
        assert peak < 2**20, peak
        _one_error_line(capsys, f"{sum(levels)} anchor sizes",
                        str(anchorkit.anchors.MAX_LADDER_RUNGS))

    def test_grid_rows_capped(self, mini_file, tmp_path, capsys, monkeypatch):
        # A 488-rung ladder at stride 1 on 1000x800 is 390.4M anchors;
        # refused before any is built (without numpy, building fails loudly).
        monkeypatch.setattr(anchorkit.anchors, "np", None)
        dims = tmp_path / "dims.csv"
        dims.write_text("a.jpg,1000,800\n", encoding="utf-8")
        argv = ["match", "--annotations", mini_file, "--dims", str(dims),
                "--design", "ams", "--scale-step", "1.01"]
        assert main(argv) == 1
        _one_error_line(capsys, "390400000")

    def test_face_area_overflow_rejected(self, tmp_path, capsys):
        # A face whose area would overflow is refused at parse, before the
        # kernel's own 2**511 bound (tested in test_matching.py) is reached.
        ann = tmp_path / "huge.txt"
        ann.write_text("a.jpg\n1\n0 0 1%s 1%s 0 0 0 0 0 0\n" % ("0" * 200, "0" * 200),
                       encoding="utf-8")
        dims = tmp_path / "dims.csv"
        dims.write_text("a.jpg,640,480\n", encoding="utf-8")
        assert main(["match", "--annotations", str(ann), "--dims", str(dims)]) == 1
        _one_error_line(capsys, "line 3: w value too large: magnitude above 2**53")

    @pytest.mark.parametrize("rows, needle", [
        ("a.jpg,nan,480", "line 1"),
        ("path,width,height\na.jpg,640,-3", "line 2"),
        ("a.jpg,inf,480", "line 1"),
        ("a.jpg,640,1e400", "line 1"),
        ("a.jpg,640,0", "line 1"),
        ("a.jpg,640,480\nb.jpg,64,64\na.jpg,640,480", "line 3"),
    ], ids=["nan", "negative", "inf", "overflow", "zero", "duplicate"])
    def test_bad_dims_rejected(self, rows, needle, mini_file, tmp_path, capsys):
        dims = tmp_path / "dims.csv"
        dims.write_text(rows + "\n", encoding="utf-8")
        assert main(["match", "--annotations", mini_file, "--dims", str(dims)]) == 1
        _one_error_line(capsys, needle)

    def test_dims_path_holding_a_unicode_line_break(self, tmp_path, capsys):
        # Neither file ends a line at "\x85", so it stays inside the path.
        ann = tmp_path / "ann.txt"
        ann.write_text("a\x85b.jpg\n1\n100 100 64 64 0 0 0 0 0 0\n", encoding="utf-8")
        dims = tmp_path / "dims.csv"
        dims.write_text("path,width,height\na\x85b.jpg,640,640\n", encoding="utf-8")
        assert main(["parse", "--annotations", str(ann)]) == 0
        capsys.readouterr()
        assert main(["match", "--annotations", str(ann), "--dims", str(dims)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_images"] == 1 and data["per_face"][0]["image"] == "a\x85b.jpg"


class TestSimulateCommand:
    def test_with_dims_sidecar(self, tmp_path, capsys):
        ann = tmp_path / "ann.txt"
        ann.write_text("a.jpg\n1\n100 100 64 64 0 0 0 0 0 0\n", encoding="utf-8")
        dims = tmp_path / "dims.csv"
        dims.write_text("path,width,height\na.jpg,640,640\n", encoding="utf-8")
        argv = [
            "simulate", "--annotations", str(ann), "--dims", str(dims),
            "--crops", "3", "--seed", "11", "--scales", "1.0",
        ]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 11
        assert data["n_crops"] == 3
        assert data["per_face"][0]["crops_seen"] == 3

    def test_missing_dims_exit_1(self, tmp_path, capsys):
        ann = tmp_path / "ann.txt"
        ann.write_text("a.jpg\n1\n100 100 64 64 0 0 0 0 0 0\n", encoding="utf-8")
        assert main(["simulate", "--annotations", str(ann), "--crops", "1"]) == 1

    @pytest.mark.parametrize("block", ["0\n0 0 0 0 0 0 0 0 0 0\n", "1\n5 5 20 20 0 0 0 1 0 0\n"],
                             ids=["no-face", "invalid-face"])
    def test_image_keeping_no_face_needs_no_dims(self, block, tmp_path, capsys):
        # b.jpg, last and absent from the sidecar, keeps no face: no crop of
        # it is drawn, and the run prints the bytes of the corpus without it.
        dims = tmp_path / "dims.csv"
        dims.write_text("a.jpg,640,640\n", encoding="utf-8")
        a = "a.jpg\n1\n100 100 64 64 0 0 0 0 0 0\n"
        outs = []
        for text in (a, a + "b.jpg\n" + block):
            ann = tmp_path / "ann.txt"
            ann.write_text(text, encoding="utf-8")
            argv = ["simulate", "--annotations", str(ann), "--dims", str(dims), "--crops", "3"]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["per_face"][0]["crops_seen"] > 0

    def test_image_keeping_a_face_without_dims_is_named(self, tmp_path, capsys):
        ann = tmp_path / "ann.txt"
        ann.write_text("a.jpg\n1\n100 100 64 64 0 0 0 0 0 0\n"
                       "b.jpg\n2\n5 5 20 20 0 0 0 1 0 0\n10 10 30 30 0 0 0 0 0 0\n",
                       encoding="utf-8")
        dims = tmp_path / "dims.csv"
        dims.write_text("a.jpg,640,640\n", encoding="utf-8")
        argv = ["simulate", "--annotations", str(ann), "--dims", str(dims), "--crops", "3"]
        assert main(argv) == 1
        _one_error_line(capsys, "image 'b.jpg' has no pixel dimensions")

    def test_tp_below_the_match_default_tn_runs(self, tmp_path, capsys):
        # simulate has no --tn: its crops are labelled under tn 0, so a --tp
        # of 0.4 leaves t0 - delta above it.
        ann = tmp_path / "ann.txt"
        ann.write_text("a.jpg\n1\n100 100 64 64 0 0 0 0 0 0\n", encoding="utf-8")
        dims = tmp_path / "dims.csv"
        dims.write_text("path,width,height\na.jpg,640,640\n", encoding="utf-8")
        argv = ["simulate", "--annotations", str(ann), "--dims", str(dims), "--crops", "3",
                "--scales", "1.0"]
        assert main(argv + ["--tp", "0.4"]) == 0
        assert json.loads(capsys.readouterr().out)["per_face"][0]["crops_seen"] == 3
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tn", "0.2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: unrecognized arguments: --tn 0.2\n"), err
        assert "Traceback" not in err

    def test_delta_unread_outside_warm(self, capsys):
        argv = ["simulate", "--synthetic", "3", "--seed", "9", "--crops", "5", "--tp", "0.1"]
        assert main(argv + ["--strategy", "sam"]) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--strategy", "sam", "--delta", "0"]) == 0
        assert capsys.readouterr().out == out
        # Under WARM, t0 - delta = 0 is refused; simulate has no tn to name.
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: t0 - delta must be positive\n", err

    def test_byte_identical(self, capsys):
        argv = ["simulate", "--synthetic", "3", "--seed", "9", "--crops", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert first == capsys.readouterr().out


class TestCoverageCommand:
    def test_text_output(self, mini_file, capsys):
        assert main(["coverage", "--annotations", mini_file, "--eta", "5.0"]) == 0
        assert capsys.readouterr().out == "1.000000\n"

    def test_json_output(self, mini_file, capsys):
        assert main(["coverage", "--annotations", mini_file, "--eta", "1.2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["eta"] == 1.2
        assert 0.0 <= data["coverage"] <= 1.0


class TestDimsSidecar:
    """match and simulate read the dims sidecar with the csv module, from a
    file as read_dims_csv reads a stream."""

    def test_path_quoted_as_the_per_face_csv_writes_it(self, tmp_path, capsys):
        # The per-face CSV quotes a path that holds a comma; a sidecar line
        # that names the image by that cell gives it its dims.
        ann = tmp_path / "ann.txt"
        ann.write_text("0--Parade/a,b.jpg\n1\n100 100 64 64 0 0 0 0 0 0\n", encoding="utf-8")
        assert main(["match", "--annotations", str(ann), "--format", "csv"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        cell = line[:line.rindex('"') + 1]
        assert cell == '"0--Parade/a,b.jpg"'
        dims = tmp_path / "dims.csv"
        dims.write_text(f"path,width,height\n{cell},1024,768\n", encoding="utf-8")
        assert read_dims_csv(str(dims)) == {"0--Parade/a,b.jpg": (1024.0, 768.0)}
        assert main(["match", "--annotations", str(ann), "--dims", str(dims)]) == 0
        want = len(generate_anchor_boxes(detector_design(), 1024.0, 768.0))
        assert json.loads(capsys.readouterr().out)["n_anchors"] == want
        argv = ["simulate", "--annotations", str(ann), "--dims", str(dims), "--crops", "2"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["per_face"][0]["image"] == "0--Parade/a,b.jpg"

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"])
    def test_file_and_stream_end_lines_alike(self, end, tmp_path, capsys):
        # A lone "\r" ends a line in a file and in a stream alike.
        text = f"a.jpg,640,480{end}b.jpg,320,320\n"
        dims = tmp_path / "dims.csv"
        dims.write_bytes(text.encode("utf-8"))
        want = {"a.jpg": (640.0, 480.0), "b.jpg": (320.0, 320.0)}
        assert read_dims_csv(str(dims)) == read_dims_csv(io.StringIO(text)) == want
        ann = tmp_path / "ann.txt"
        ann.write_text("a.jpg\n1\n100 100 64 64 0 0 0 0 0 0\nb.jpg\n1\n10 10 30 30 0 0 0 0 0 0\n",
                       encoding="utf-8")
        argv = ["simulate", "--annotations", str(ann), "--dims", str(dims), "--crops", "2"]
        assert main(argv) == 0
        assert [f["image"] for f in json.loads(capsys.readouterr().out)["per_face"]] == [
            "a.jpg", "b.jpg"]

    @pytest.mark.parametrize("text, needle", [
        ('"a"b.jpg,640,480\n', "line 1: ',' expected after '\"'"),
        ('a.jpg,640,480\n"b.jpg,64,64\n', "line 2: unexpected end of data"),
    ], ids=["text-after-quote", "unclosed-quote"])
    def test_malformed_quote_names_its_line(self, text, needle, mini_file, tmp_path, capsys):
        dims = tmp_path / "dims.csv"
        dims.write_text(text, encoding="utf-8")
        assert main(["match", "--annotations", mini_file, "--dims", str(dims)]) == 1
        _one_error_line(capsys, needle)
