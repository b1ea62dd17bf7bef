"""The README's library and CLI examples run and print what their comments
say, every public name resolves, every module the README describes exists,
and every `module.name` it cites names an attribute of that module."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import anchorkit
from anchorkit import (MatchConfig, Strategy, assign_labels_xywh, detector_design,
                       generate_anchor_boxes, run_match)
from anchorkit.cli import main

README = Path(__file__).parent.parent / "README.md"
PACKAGE = Path(anchorkit.__file__).parent


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def cli_examples() -> dict[str, list[str]]:
    """Each `anchorkit` command of the README's CLI block that shows its
    output, without the program name, mapped to the output lines shown
    below it as comments indented by two spaces. A "..." line stands for
    the rest of the output."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples, command = {}, None
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("anchorkit "):
            command = " ".join(line.split("#", 1)[0].split()[1:])
        elif line.startswith("#  ") and command is not None:
            examples.setdefault(command, []).append(line[3:])
        else:
            command = None
    return examples


def test_cli_examples_print_what_their_comments_say(capsys):
    examples = cli_examples()
    assert {"ams --synthetic 8 --seed 1 --ar-list 0.3,0.5,1.0,2.0,2.3,4.0 --tp 0.5",
            "rfd --channels 64"} <= set(examples)
    for command, shown in examples.items():
        assert main(command.split()) == 0, command
        out = capsys.readouterr().out.splitlines()
        if shown[-1] == "...":
            shown = shown[:-1]
            out = out[:len(shown)]
        assert out == shown, command


def test_library_example_and_public_names():
    # Run the block statement by statement, keeping each bare expression's value.
    scope, values = {}, []
    tree = ast.parse(library_example())
    for node in tree.body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README", "exec"), scope)
    boundary, best_iou, tp, rows, positives, counts, matched = values
    assert boundary == 2.25
    assert best_iou == pytest.approx(0.4766, abs=5e-5)
    assert type(tp) is float and tp == pytest.approx(0.46, abs=1e-12)
    assert len(scope["grid"]) == 102_300 and rows.shape == (102_300, 4)
    assert positives > 0
    assert set(counts) == {"positive", "negative", "ignore", "compensated"}
    assert matched == 1

    # The same face gets no positive anchor under SAM.
    call = next(n.value for n in tree.body
                if isinstance(n, ast.Assign) and n.targets[0].id == "result")
    face = ast.literal_eval(call.args[1])
    sam = assign_labels_xywh(scope["grid"], face, MatchConfig(strategy=Strategy.SAM))
    assert sam.positive_count[0] == 0
    assert np.array_equal(sam.max_iou, scope["result"].max_iou)
    # run_match labels the parsed face on its fallback canvas, where SAM
    # leaves it unmatched too.
    report = run_match(scope["corpus"], detector_design(), MatchConfig(strategy=Strategy.SAM))
    assert report.n_anchors == len(generate_anchor_boxes(detector_design(), 384, 384))
    assert report.n_matched == 0

    names = anchorkit.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(anchorkit, name), name


def test_module_bullets_name_package_files():
    bullets = re.findall(r"^- \*\*(\w+)\*\* —", README.read_text(encoding="utf-8"), re.M)
    assert bullets
    for name in bullets:
        assert (PACKAGE / f"{name}.py").is_file(), name


def test_module_names_resolve():
    # `matching.set_runs` or `ams.label_sets(...)`: a module of the package,
    # then a name, in backticks. A name deleted from the code but left in the
    # README fails here.
    text = README.read_text(encoding="utf-8")
    cited = set(re.findall(r"`(\w+)\.(\w+)[`(]", text))
    cited = {(mod, name) for mod, name in cited if (PACKAGE / f"{mod}.py").is_file()}
    assert len(cited) >= 6, cited
    for mod, name in sorted(cited):
        assert hasattr(importlib.import_module(f"anchorkit.{mod}"), name), f"{mod}.{name}"
