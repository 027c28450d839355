"""Negative controls: the grid suites must fail when a phase of the engine is broken.

Each break is installed with ``monkeypatch`` only.  The five grid propositions
run at n = 2, F in {I, diag:1,2} and d in {(0,1), (0,0)}; the test pins which
checks turn ``Unverified``.  At d = (0,0) every phase is 1, so no break shows.
"""

import io

import pytest

from braidalg import algebra, braided, cli, uqf
from braidalg.scalars import zeta

PROPS = ("coproduct", "fundamental", "cuntz-action", "matricial", "quotient")


def unverified_checks():
    """(prop, F, d) -> the names of its Unverified checks, for every grid request that has one."""
    out = {}
    for F in ("I", "diag:1,2"):
        for d in ("0,1", "0,0"):
            for prop in PROPS:
                buf = io.StringIO()
                cli.run(["verify", "--prop", prop, "--n", "2", f"--d={d}", "--F", F, "--zeta", "formal"], buf)
                bad = [l.strip().rsplit(":", 1)[0] for l in buf.getvalue().splitlines() if l.startswith("  ") and l.endswith(": Unverified")]
                if bad:
                    out[prop, F, d] = bad
    return out


def _unitary(tag):
    return [f"{tag} unitary: {side}({i},{j})" for i in (1, 2) for j in (1, 2) for side in ("col", "row")]


def _invert_the_braiding(monkeypatch):
    """The product kernel's phase z^e becomes z^-e; the star and the dressing keep theirs."""
    kernel = algebra._multiply_into

    def inverted(terms, left, right):
        monkeypatch.setattr(algebra, "zeta", lambda e: zeta(-e))
        try:
            return kernel(terms, left, right)
        finally:
            monkeypatch.setattr(algebra, "zeta", zeta)

    monkeypatch.setattr(algebra, "_multiply_into", inverted)
    monkeypatch.setattr(braided, "_multiply_into", inverted)


def _drop_the_dressing(monkeypatch):
    """conjugate_matrix without its phase z^(d_i (d_j - d_i)): the plain entrywise star."""
    monkeypatch.setattr(uqf, "conjugate_matrix", lambda u, d: [[e.star() for e in row] for row in u])


# Blind spots, by design: quotient and matricial form no product across legs, so
# they cannot see the braiding; matricial never conjugates, so it cannot see the
# dressing.  `U unitary` does turn Unverified under the inverted braiding: the
# star keeps the true phase, so U* is no longer U's adjoint in the broken product.
BRAIDING = {
    "coproduct": _unitary("U") + _unitary("U'"),
    "fundamental": ["t unitary: col(1,1)", "t unitary: col(1,2)", "t unitary: row(1,2)", "t unitary: row(2,2)"],
    "cuntz-action": ["S'*S'(1,1)", "S'*S'(1,2)", "sum S'S'* = 1"],
}
DRESSING = {
    "coproduct": ["U' split(1,1)", "U' split(2,2)"] + _unitary("U'"),
    "fundamental": ["t-bar(2,1)"],
    "cuntz-action": ["star formula j=1"],
    "quotient": ["(a)(1,2)", "(a)(2,1)"],
}


def test_the_unbroken_grid_verifies():
    assert unverified_checks() == {}


@pytest.mark.parametrize("brk, expected", [(_invert_the_braiding, BRAIDING), (_drop_the_dressing, DRESSING)], ids=["braiding", "dressing"])
def test_a_broken_phase_turns_the_suites_that_use_it_unverified(monkeypatch, brk, expected):
    brk(monkeypatch)
    assert unverified_checks() == {(prop, F, "0,1"): names for F in ("I", "diag:1,2") for prop, names in expected.items()}
