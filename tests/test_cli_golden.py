"""Golden CLI outputs: the exit code and stdout sha256 of a fixed matrix of
`cli.main` invocations over the committed fixtures in tests/data.

The inputs are fixture files rather than `--synthetic`, so no digest
depends on libm's log/exp. Most `match` cases run on a few image blocks cut
from wider_50.txt; one runs the whole file on its four canvases. Two run the stride-1 `ams` design over the whole file,
once with the dims CSV and once on fallback canvases; each takes about 1.5 s.
A change that alters any output byte fails here; update a digest only when
the output is meant to change.
"""

import hashlib
from pathlib import Path

import pytest

from anchorkit.cli import main

DATA = Path(__file__).parent / "data"
WIDER = str(DATA / "wider_50.txt")
DIMS = str(DATA / "wider_50_dims.csv")
DESIGN = str(DATA / "design_two_level.json")

# Image blocks of wider_50.txt for the match cases. MIXED holds the
# zero-count block (17), the zero-width face (23) and the invalid face (31);
# SMALL has small fallback canvases for the stride-1 ams design.
MIXED = (0, 2, 5, 8, 14, 17, 23, 31, 34)
SMALL = (2, 5)


def _image_blocks(text: str) -> list[str]:
    lines = text.splitlines(keepends=True)
    blocks, i = [], 0
    while i < len(lines):
        # A zero count is followed by one placeholder face line.
        end = i + 2 + max(int(lines[i + 1]), 1)
        blocks.append("".join(lines[i:end]))
        i = end
    return blocks


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    blocks = _image_blocks(Path(WIDER).read_text(encoding="utf-8"))
    root = tmp_path_factory.mktemp("golden")
    paths = {"wider": WIDER, "dims": DIMS, "design": DESIGN}
    for name, picks in (("mixed", MIXED), ("small", SMALL)):
        p = root / f"{name}.txt"
        p.write_text("".join(blocks[i] for i in picks), encoding="utf-8")
        paths[name] = str(p)
    return paths


_MATCH = ["match", "--annotations", "{mixed}", "--dims", "{dims}"]
_SIM = ["simulate", "--annotations", "{wider}", "--dims", "{dims}", "--crops", "3",
        "--seed", "7", "--strategy", "sam_compensate"]
# 20 crops per image, so most faces are seen in several crops and the
# per-face maxima and counters fold many crops.
_SIM20 = ["simulate", "--annotations", "{wider}", "--dims", "{dims}", "--crops", "20",
          "--seed", "7"]

CASES = {
    **{
        f"ams-{fmt}-{pf}": ["ams", "--annotations", "{wider}", "--format", fmt, f"--{pf}"]
        for fmt in ("table", "json", "csv")
        for pf in ("per-face", "no-per-face")
    },
    "ams-step-1.3": ["ams", "--annotations", "{wider}", "--scale-step", "1.3"],
    "ams-step-1.3-json": ["ams", "--annotations", "{wider}", "--scale-step", "1.3",
                          "--format", "json", "--anchor-ar", "1.5", "--tp", "0.4"],
    "ams-step-sqrt2-text": ["ams", "--annotations", "{wider}",
                            "--scale-step", "1.41421356237310"],
    **{
        f"match-{strategy}-{fmt}": _MATCH + ["--strategy", strategy, "--format", fmt]
        for strategy in ("sam", "sam_compensate", "warm")
        for fmt in ("json", "table", "csv")
    },
    "match-no-dims": ["match", "--annotations", "{mixed}", "--format", "json"],
    "match-no-dims-table": ["match", "--annotations", "{mixed}", "--format", "table",
                            "--strategy", "sam_compensate"],
    "match-design-detector": _MATCH + ["--design", "detector", "--anchor-ar", "2.0",
                                       "--delta", "0.12"],
    "match-design-ams": ["match", "--annotations", "{small}", "--design", "ams"],
    "match-design-ams-ar": ["match", "--annotations", "{small}", "--design", "ams",
                            "--anchor-ar", "1.5", "--format", "table"],
    "match-design-ams-step-1.3": ["match", "--annotations", "{small}", "--design", "ams",
                                  "--scale-step", "1.3", "--format", "csv"],
    "match-design-ams-step-sqrt2-text": ["match", "--annotations", "{small}",
                                         "--design", "ams", "--scale-step",
                                         "1.41421356237310", "--format", "csv"],
    "match-design-ams-whole": ["match", "--annotations", "{wider}", "--dims", "{dims}",
                               "--design", "ams"],
    "match-design-ams-whole-no-dims": ["match", "--annotations", "{wider}", "--design", "ams"],
    # All 50 images on their 4 canvases: images that share a canvas are
    # labelled in runs, and an unmatched face claims an anchor of its own
    # image's grid.
    "match-shared-canvas-sam_compensate-tn0": ["match", "--annotations", "{wider}",
                                               "--dims", "{dims}", "--strategy",
                                               "sam_compensate", "--tn", "0"],
    "match-design-file": _MATCH + ["--design", "{design}"],
    "match-design-file-table": _MATCH + ["--design", "{design}", "--format", "table",
                                         "--anchor-ar", "1.25"],
    "simulate-json": _SIM,
    "simulate-csv": _SIM + ["--format", "csv"],
    **{
        f"simulate-{name}-{fmt}": _SIM20 + extra + ["--format", fmt]
        for name, extra in (
            ("warm", ["--strategy", "warm"]),
            ("sam", ["--strategy", "sam"]),
            ("sam_compensate", ["--strategy", "sam_compensate"]),
            ("scales", ["--scales", "0.3,1.0", "--output-side", "320"]),
            ("design-file", ["--design", "{design}"]),
        )
        for fmt in ("json", "csv")
    },
    "rfd-table": ["rfd", "--channels", "64"],
    "rfd-json-bias": ["rfd", "--channels", "64", "--bias", "--format", "json"],
    "rfd-table-bias": ["rfd", "--channels", "12", "--bias"],
    "parse": ["parse", "--annotations", "{wider}"],
    "parse-emit": ["parse", "--annotations", "{wider}", "--emit"],
    "coverage-text": ["coverage", "--annotations", "{wider}"],
    "coverage-json": ["coverage", "--annotations", "{wider}", "--eta", "2.5",
                      "--anchor-ar", "1.2", "--format", "json"],
}

GOLDEN = {
    "ams-csv-no-per-face": (0, "ba27f25a5eee12d7e8fd32b39a52e7279948b272379c3a3d033e40376373de55"),
    "ams-csv-per-face": (0, "ffe790e40d3f0fb1eb2cb723290d63f0f9c691dc77c23ace7e4509c57cd7fdcb"),
    "ams-json-no-per-face": (0, "5e86b228d73140704d0834567978810bbd9c073887ad0f54ead8bcdfe63698fb"),
    "ams-json-per-face": (0, "9278aef9dbc15ebab28dbfb2d588d12252e07660053722159ecf48a6af588ee7"),
    "ams-step-1.3": (0, "7f80881229d7c5e85363ba7a9e93bf9ee629b806907e71465e406b22fc1804be"),
    "ams-step-1.3-json": (0, "f9d102feadbc78264a492056e650445ac27fa3d72ad27f141a3d0448a972fcff"),
    "ams-step-sqrt2-text": (0, "88e91de546707d26c56971c6ff0b54c4313487876bb8a8de3b3061406004f9ed"),
    "ams-table-no-per-face": (0, "13eca02848010468d161a18f76b38e7d6a6c6ebd9ed11431909d4843714b9a9d"),
    "ams-table-per-face": (0, "88e91de546707d26c56971c6ff0b54c4313487876bb8a8de3b3061406004f9ed"),
    "coverage-json": (0, "a1b5a7a4b3c1636faf409307c825d5186a070dbec5f1ea888e211a81e1b958e3"),
    "coverage-text": (0, "e9a6d5410d51b1deac56e3a8d8c3be0ff046785c829e69fb1b04fbe7fabfb4d1"),
    "match-design-ams": (0, "0af7a595ad38945866a8420b70cdcc92484bae365746b5b1e57ce898490844c4"),
    "match-design-ams-ar": (0, "0eab366c2d0e9cf37b3060c7b4baf0c42be5795b484276ffe3527a179575ccaf"),
    "match-design-ams-step-1.3": (0, "166546ad27fd0a0c2ed913366e8ce567103bc0dddd9092a40ea8327286e84113"),
    "match-design-ams-step-sqrt2-text": (0, "470d34f84fa394131f5ba26bb6f354e74672180965137bba69348bd3e517af71"),
    "match-design-ams-whole": (0, "64e2c20bf84cc295a7b234df237319edbe89a2afad5b46171f7ba77d35bc0e25"),
    "match-design-ams-whole-no-dims": (0, "4d021b83a1ea34430417b8ed1aa84e8d50a18768f522cd8a4aa82eaad55b5446"),
    "match-design-detector": (0, "f8d5123a9635a611de833d81d349f229aa003e415d38299a43ddceb79a9f947d"),
    "match-design-file": (0, "99fc2eb0c75554b8a6734e1eb4f53781bc94fade2de220e89d9e93277d2d2cba"),
    "match-design-file-table": (0, "1d5ce4b1528ba44618e7bbd8b7efe1f1923362d94940375863965777d86c8abc"),
    "match-no-dims": (0, "6c134c342ce2476f865bad13664b4ef2827b784f93771b3f96b9ec5eda9cd1ea"),
    "match-no-dims-table": (0, "f13b3747fb4f3fdcc8c7c592a456cc48c348762375bebed40495d809d89edd17"),
    "match-shared-canvas-sam_compensate-tn0": (0, "b03f2724dc74bf6289928935d5dc2133db41a95cadc1189baa814d6b97f20530"),
    "match-sam-csv": (0, "7939befdf06f865fb4a80521d28699b755e4a93e91ffe974b806ab796b3f06b5"),
    "match-sam-json": (0, "8a72e3bfc9c44f226e55b2181ea06c06fcb5007cb4591114a39cfd08b4d836cd"),
    "match-sam-table": (0, "8c1fdd6c3ddadadbcd6e93a34029be2aeb3d489008444202a3870ca4496a0cc7"),
    "match-sam_compensate-csv": (0, "41e5d4691904468c09ea124ed41f7344ad4f8162e1c477bad2527532dbb48d93"),
    "match-sam_compensate-json": (0, "dbadff522585bf98d03a2bc410ab0afc76c33303432e36e98c2785fc57bbb8ab"),
    "match-sam_compensate-table": (0, "92b6d7e4508f028bba1f2e9df8238631f4cc6fecd64aff74c66997f7f2478b49"),
    "match-warm-csv": (0, "f6fc6e9e3423c570d960198e8c8086d0ca7e88d21c7a59333560131e0b2de877"),
    "match-warm-json": (0, "7763292d6a2f4a22518c1fb6042b4ad85d8efc81d0c8143b4817c5828eafc7c6"),
    "match-warm-table": (0, "f7ee48481475d9dfd610d3f8735d106f2f86a3df6d2224cbf9174c7f618c1ce9"),
    "parse": (0, "83c0e5d0df540656e97bf40c9a92418123766996c798b2140607bf98fa089f9e"),
    "parse-emit": (0, "8c23c20d956cb8759f9e7844c3191010adaaca6a638bbd6368af6f8b6b106ad8"),
    "rfd-json-bias": (0, "11ab730689c3c906fe13c039c5949f7b55700e8e80bfe01e081010ca70c07f21"),
    "rfd-table": (0, "54c0fa40c228ef2efe3651f84f8a609d80efe909968587547f65a7d84442d351"),
    "rfd-table-bias": (0, "1406df474209c0a98551a242bd0908b8cd01defacaf3571904326b558424724e"),
    "simulate-csv": (0, "0d222ae6b07cb57ef603ed30159c530deb0fe46b8d2fa726552aed9a8cb47e9a"),
    "simulate-design-file-csv": (0, "80981f9e5a4ea3a85b9f3da7dfd0c27054cb71598dfc0d329fedb1cf4d836f49"),
    "simulate-design-file-json": (0, "0e46f2d0753bb82c5230065b48d7dda69e791ffdaac2aaaf971de764cc2edb6a"),
    "simulate-json": (0, "4ab73a3dbd21846574c6c8df7ec998281285144c6bd365315523d2908f2f2045"),
    "simulate-sam-csv": (0, "45716b0079c8d1837f6ba6979fe1a3782bd43e24a69342fbe40136073d94c5bc"),
    "simulate-sam-json": (0, "aec0f4e83072bfd317e21c54b84338c6a833cd3f6132007c61aab4ccb2eb0c07"),
    "simulate-sam_compensate-csv": (0, "3b1b358661af215b8d611e74cd5cab616f8d5302ce678ba58423b20f772977e6"),
    "simulate-sam_compensate-json": (0, "473cacda8e801e01a9210a9f33e65050eef08b57f3107e8f18834ff022afbb98"),
    "simulate-scales-csv": (0, "d5dccd0af22b5a38a9a914a5a94d1eb7132bd3add96d45140382d35be4d31860"),
    "simulate-scales-json": (0, "47e33225453a12d4fa19d2a781a694c45bc44bf22ce4b4ba05eaa22d69de9488"),
    "simulate-warm-csv": (0, "cfa6ee6c65acc9d48b70a6c31d9f3952656797b23dabac73485d738381285bc8"),
    "simulate-warm-json": (0, "a2ec4de4b3e7f010518105fe862bc3066a0250fcb38dfb395043118668aebaa8"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, inputs, capsys):
    argv = [arg.format(**inputs) for arg in CASES[case]]
    code = main(argv)
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[case]


def test_matrix_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
