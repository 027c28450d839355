"""Golden outputs of the README command-line examples, byte for byte.

Each case pins the exact stdout and exit code of one ``braidalg`` command
line.  The expected stdout lives in ``tests/golden/<case>.out``; rewrite the
files from a known-good checkout with

    PYTHONPATH=src python tests/test_cli_golden.py

The longer kms-preserve runs of ``KMS_DIGESTS`` are pinned by the SHA-256 of
their stdout instead, which that command does not rewrite.
"""

import hashlib
import io
import sys
from pathlib import Path

import pytest

from braidalg.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

# kms case name -> the graph text passed as its "{graph}" file
GRAPHS = {
    # one vertex, two loops: exact, rho = 2
    "kms": "vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\n",
    # the 2-cycle: exact, rho = 1
    "kms-two-cycle": "vertices 2\nedge 1 1 2 deg 1\nedge 2 2 1 deg 1\n",
    # D = [[1,1],[0,1]], a Jordan block: exact, rho = 1, weights (1, 0)
    "kms-defective": "vertices 2\nedge 1 1 1 deg 1\nedge 2 1 2 deg 1\nedge 3 2 2 deg 1\n",
    # D = [[1,0,0,0],[0,1,0,0],[1,1,1,0],[0,1,2,0]]: exact, rho = 1, and the
    # only nonnegative eigenvector is a combination of rref kernel vectors
    # with a coefficient of 2; weights (0, 0, 1/3, 2/3)
    "kms-combination": (
        "vertices 4\nedge 1 1 1 deg 1\nedge 2 2 2 deg 1\nedge 3 3 1 deg 1\nedge 4 3 2 deg 1\n"
        "edge 5 3 3 deg 1\nedge 6 4 2 deg 1\nedge 7 4 3 deg 1\nedge 8 4 3 deg 1\n"
    ),
    # D = I: exact, rho = 1, every vector an eigenvector; weights (1/2, 1/2)
    "kms-two-loops": "vertices 2\nedge 1 1 1 deg 1\nedge 2 2 2 deg 1\n",
    # D = diag([2], [[1,2],[1,1]]): 2 is an eigenvalue but rho = 1 + sqrt(2),
    # so the run is in float mode
    "kms-irrational": (
        "vertices 3\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\nedge 3 2 2 deg 1\n"
        "edge 4 2 3 deg 1\nedge 5 2 3 deg 1\nedge 6 3 2 deg 1\nedge 7 3 3 deg 1\n"
    ),
}

VERIFY = {
    "coproduct": ["--n", "2", "--d", "0,1"],
    "fundamental": ["--n", "2", "--d", "0,1", "--F", "diag:1,2"],
    "cuntz-action": ["--n", "3", "--d", "1,2,3"],
    "kms-preserve": ["--n", "2", "--d", "0,1", "--len", "3"],
    "matricial": ["--n", "2", "--d", "0,1"],
    "quotient": ["--n", "2", "--d", "0,1"],
}

# the five grid props at n=3, where the suites' index loops are longest
N3 = ["--n", "3", "--d", "1,2,3", "--F", "diag:1,2,3"]
N3_PROPS = ("coproduct", "fundamental", "cuntz-action", "matricial", "quotient")
# n=3 props whose contraction traces are pinned step by step
N3_TRACED = ("coproduct", "fundamental")
# kms-preserve at n=3, where pairs of unequal length and phased words meet the state
KMS_N3 = ["--n", "3", "--d", "1,2,3", "--len", "2"]
# the two Hopf-structure props at n=5, the largest size the suites are timed at
N5 = ["--n", "5", "--d", "0,1,2,3,4"]
N5_PROPS = ("coproduct", "fundamental")
# the two Hopf-structure props at n=1, the only ones whose traces show local
# rules on a u letter (compiled from a 1x1 u or u')
N1 = {"coproduct": ["--n", "1", "--d", "0"], "fundamental": ["--n", "1", "--d", "2"]}

# case name -> (argv, expected exit code); "{graph}" is the file of GRAPHS[case]
CASES = {
    "admissible": (["admissible", "--F", "I", "--n", "3", "--d", "1,2,3"], 0),
    "presentation": (["presentation", "--F", "diag:1,2", "--d", "0,1"], 0),
    "fusion": (["fusion", "--left", "(0; a)", "--right", "(0; b)", "--n", "2"], 0),
    "dims": (["dims", "--n", "2", "--maxlen", "4"], 0),
}
for _case in GRAPHS:
    CASES[_case] = (["kms", "--graph", "{graph}", "--len", "2"], 0)
for _zeta in ("formal", "root:8"):
    _tag = _zeta.replace(":", "")
    CASES[f"bosonize-{_tag}"] = (
        ["bosonize", "--F", "I", "--n", "2", "--d", "0,1", "--zeta", _zeta], 0
    )
    for _prop, _args in VERIFY.items():
        CASES[f"verify-{_prop}-{_tag}"] = (
            ["verify", "--prop", _prop, *_args, "--zeta", _zeta, "--trace"], 0
        )
    for _prop in N3_PROPS:
        CASES[f"verify-{_prop}-n3-{_tag}"] = (
            ["verify", "--prop", _prop, *N3, "--zeta", _zeta], 0
        )
    for _prop in N3_TRACED:
        CASES[f"verify-{_prop}-n3-trace-{_tag}"] = (
            ["verify", "--prop", _prop, *N3, "--zeta", _zeta, "--trace"], 0
        )
    for _prop in N5_PROPS:
        CASES[f"verify-{_prop}-n5-{_tag}"] = (
            ["verify", "--prop", _prop, *N5, "--zeta", _zeta], 0
        )
    for _prop, _args in N1.items():
        CASES[f"verify-{_prop}-n1-trace-{_tag}"] = (
            ["verify", "--prop", _prop, *_args, "--zeta", _zeta, "--trace"], 0
        )
    CASES[f"verify-kms-preserve-n3-trace-{_tag}"] = (
        ["verify", "--prop", "kms-preserve", *KMS_N3, "--zeta", _zeta, "--trace"], 0
    )


# longer kms-preserve runs, too large for a golden file: argv -> stdout SHA-256
KMS_DIGESTS = {
    ("--n", "3", "--d", "0,1,2", "--len", "3"): "b2dd17d6b9168d526f09f90929db77999b06116a620ba833a2f28dd34d544c1e",
    ("--n", "2", "--d", "0,1", "--len", "4"): "7c925d54c34e0b3d54e1bc6b72f446531186c83bb303c53ea99814e57c9ec654",
}


def invoke(case, tmp_dir):
    """Run one case, writing its graph file into tmp_dir first."""
    argv, _ = CASES[case]
    if case in GRAPHS:
        graph = Path(tmp_dir) / f"{case}.graph"
        graph.write_text(GRAPHS[case])
        argv = [str(graph) if a == "{graph}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, tmp_path):
    code, out = invoke(case, tmp_path)
    assert code == CASES[case][1]
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("args", sorted(KMS_DIGESTS), ids=" ".join)
def test_long_kms_preserve_digest(args):
    out = io.StringIO()
    assert run(["verify", "--prop", "kms-preserve", *args], out, io.StringIO()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == KMS_DIGESTS[args]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, (_, expected_code) in sorted(CASES.items()):
            code, out = invoke(case, tmp)
            if code != expected_code:
                sys.exit(f"{case}: exit code {code}, expected {expected_code}")
            (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")
