"""Relabeling the indices gives an isomorphic presentation, so it must not change a verdict.

At n = 3 the five grid propositions run at d and F = diag(1,2,3), and again with
the indices permuted by a 3-cycle sigma: d and the diagonal permuted to match.
Check (i, j) of the first run is check (sigma(i), sigma(j)) of the second.
"""

import io
import re

from braidalg import cli

PROPS = ("coproduct", "fundamental", "cuntz-action", "matricial", "quotient")
SIGMA = {1: 2, 2: 3, 3: 1}  # index i of the first run is index SIGMA[i] of the second
D, F = (0, 1, 2), (1, 2, 3)
INDEX = re.compile(r"(?<=[(\[,=])\d(?=[),\]]|$)")  # an index in "(i,j)", "[i,j]" or "j=k"; "= 1" is no index


def verdicts(prop, d, f):
    buf = io.StringIO()
    argv = ["verify", "--prop", prop, "--n", "3", "--d=" + ",".join(map(str, d)), "--F", "diag:" + ",".join(map(str, f))]
    cli.run(argv + ["--zeta", "formal"], buf)
    lines = [l.strip().rsplit(": ", 1) for l in buf.getvalue().splitlines() if l.startswith("  ") and ": " in l]
    return {name: verdict for name, verdict in lines if verdict in ("Verified", "Unverified")}


def permuted(values):
    out = [None] * len(values)
    for i, v in enumerate(values, 1):
        out[SIGMA[i] - 1] = v
    return tuple(out)


def relabeled(name):
    return INDEX.sub(lambda m: str(SIGMA[int(m.group())]), name)


def test_relabeling_the_indices_changes_no_verdict():
    for prop in PROPS:
        first = verdicts(prop, D, F)
        assert first, prop
        second = verdicts(prop, permuted(D), permuted(F))
        assert {relabeled(name): v for name, v in first.items()} == second, prop
