"""Fuzz cli.main with mutated annotation, dims and design texts.

Whatever the input, an invocation must exit 0, 1 or 2, write exactly one
`error:` line and nothing else to stderr when it fails, never let an
exception or a numpy warning escape, and print JSON that parses strictly
(no NaN or Infinity). Mutations draw from a fixed list of hostile tokens.
Sizes far beyond a real image (a 1e11-pixel canvas, a 1e-300 stride) are
refused by arithmetic before anything is allocated, and no token makes a
grid larger than a few hundred thousand rows, so every example stays small.
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from anchorkit.cli import main

ANNOTATIONS = (
    "a.jpg\n2\n10 20 30 40 0 0 0 0 0 0\n50 60 20 44 0 0 0 1 1 0\n"
    "b.jpg\n0\n0 0 0 0 0 0 0 0 0 0\n"
    "c.jpg\n1\n5 5 16 16 2 1 1 0 2 1\n"
)
DIMS = "path,width,height\na.jpg,640,480\nc.jpg,64,64\n"
DESIGN = {
    "levels": [
        {"name": "P3", "stride": 8, "sizes": [8, 16]},
        {"name": "P4", "stride": 16, "sizes": [32]},
    ],
    "aspect_ratio": 1.0,
}

# Text tokens for annotation and dims fields. Python's int() also reads
# "1_000" and non-ASCII digits.
TOKENS = [
    "", "0", "-1", "1", "2", "3", "1_000", "١٢", "nan", "inf", "-inf",
    "1e400", "1e-300", "1.5", "x", "a.jpg", "99999999999", "9" * 401, "-" + "9" * 401,
]
# JSON values for design fields.
VALUES = [
    0, -8, 3, 24.5, 1e-300, 1e300, float("nan"), float("inf"), 10**401,
    "8", None, [], {}, True,
]


def _refuse(name):
    raise ValueError(f"non-finite JSON constant {name}")


@st.composite
def mutated_lines(draw, text, sep):
    """text with one to three line edits: a field replaced by a token, a
    line deleted, duplicated or inserted, or the text cut short."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "replace", "delete", "duplicate", "insert", "cut"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "replace":
            fields = lines[i].split(sep)
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.sampled_from(TOKENS))
            lines[i] = sep.join(fields)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, draw(st.sampled_from(TOKENS)))
        else:
            lines = lines[:i]
        if not lines:
            break
    return "\n".join(lines)


@st.composite
def mutated_designs(draw):
    """DESIGN with one field replaced or removed, or its JSON text cut short."""
    design = json.loads(json.dumps(DESIGN))
    level = design["levels"][draw(st.integers(0, 1))]
    slots = [(design, "aspect_ratio"), (design, "levels"), (level, "name"),
             (level, "stride"), (level, "sizes")]
    slots += [(level["sizes"], k) for k in range(len(level["sizes"]))]
    owner, key = draw(st.sampled_from(slots))
    op = draw(st.sampled_from(["replace", "replace", "remove", "cut"]))
    if op == "remove" and isinstance(owner, dict):
        del owner[key]
    else:
        owner[key] = draw(st.sampled_from(VALUES))
    text = json.dumps(design)
    if op == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _check(argv, json_out):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 0:
        assert err == "", err
        if json_out:
            json.loads(out, parse_constant=_refuse)
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _files(tmp, annotations=ANNOTATIONS, dims=DIMS, design=json.dumps(DESIGN)):
    paths = {}
    for name, text in (("ann", annotations), ("dims", dims), ("design", design)):
        paths[name] = str(Path(tmp) / name)
        Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


@settings(max_examples=60)
@given(mutated_lines(ANNOTATIONS, " "))
def test_mutated_annotations(text):
    with tempfile.TemporaryDirectory() as tmp:
        ann = _files(tmp, annotations=text)["ann"]
        _check(["parse", "--annotations", ann], True)
        _check(["parse", "--annotations", ann, "--emit"], False)
        _check(["ams", "--annotations", ann, "--format", "json"], True)
        _check(["coverage", "--annotations", ann, "--format", "json"], True)
        _check(["match", "--annotations", ann, "--design", "detector"], True)


@settings(max_examples=60)
@given(mutated_lines(DIMS, ","))
def test_mutated_dims(text):
    with tempfile.TemporaryDirectory() as tmp:
        p = _files(tmp, dims=text)
        _check(["match", "--annotations", p["ann"], "--dims", p["dims"],
                "--design", "detector"], True)


@settings(max_examples=60)
@given(mutated_designs())
def test_mutated_designs(text):
    with tempfile.TemporaryDirectory() as tmp:
        p = _files(tmp, design=text)
        _check(["match", "--annotations", p["ann"], "--dims", p["dims"],
                "--design", p["design"]], True)
