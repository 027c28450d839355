"""The free fusion ring: involution, product rule, dimensions, audits."""

import itertools

import pytest

from braidalg import fusion
from braidalg.fusion import (
    FusionResult,
    Irrep,
    Word,
    all_words,
    check_fusion_ring,
    conjugate_irrep,
    dimension,
    fuse,
    fuse_results,
    parse_irrep,
    word_bar,
)


def W(s=""):
    return Word(s)


def R(x, s=""):
    return Irrep(x, Word(s))


def test_word_bar_examples():
    assert word_bar(W()) == W()
    assert word_bar(W("a")) == W("b")
    # antimultiplicativity: bar(ab) = bar(b) bar(a) = a b
    assert word_bar(W("ab")) == W("ab")
    assert word_bar(W("aab")) == W("abb")


def test_word_bar_involution_and_antimultiplicative():
    for wl in all_words(3):
        assert word_bar(word_bar(wl)) == wl
        for wr in all_words(2):
            assert word_bar(wl * wr) == word_bar(wr) * word_bar(wl)


def test_fuse_with_unit():
    assert fuse(R(0), R(3, "ab")) == FusionResult([R(3, "ab")])
    assert fuse(R(3, "ab"), R(0)) == FusionResult([R(3, "ab")])


def test_fuse_a_with_b():
    assert fuse(R(0, "a"), R(0, "b")) == FusionResult([R(0, "ab"), R(0, "")])


def test_fuse_aa_with_bb():
    # hand enumeration: suffixes g of aa are e, a, aa;
    # bar(e)=e, bar(a)=b, bar(aa)=bb are all prefixes of bb
    got = fuse(R(1, "aa"), R(2, "bb"))
    assert got == FusionResult([R(3, "aabb"), R(3, "ab"), R(3, "")])


def test_fuse_charges_add_in_every_summand():
    for r in [R(2, "ab"), R(-1, "ba")]:
        for s in [R(3, "b"), R(5, "ab")]:
            for t, _ in fuse(r, s).items():
                assert t.x == r.x + s.x


def test_conjugate_examples():
    assert conjugate_irrep(R(0)) == R(0)
    assert conjugate_irrep(R(1, "a")) == R(-1, "b")
    assert conjugate_irrep(R(-2, "ab")) == R(2, "ab")


def test_conjugate_is_involution():
    for w in all_words(3):
        for x in (-2, 0, 1):
            r = Irrep(x, w)
            assert conjugate_irrep(conjugate_irrep(r)) == r


def test_dimension_examples():
    for n in (1, 2, 3, 5):
        assert dimension(W(), n) == 1
    assert dimension(W("a"), 2) == 2
    # oracle: n^2 = dim(ab) + dim(e) from fuse((0,a),(0,b))
    assert dimension(W("ab"), 2) == 2 * 2 - 1 == 3
    assert dimension(W("ab"), 3) == 3 * 3 - 1 == 8


def test_dimension_solves_the_fusion_recursion():
    # dim(w) * n = total dimension of fuse((0,w), (0,a)), and mirrored
    for n in (2, 3):
        for w in all_words(4):
            for gen in ("a", "b"):
                out = fuse(Irrep(0, w), R(0, gen))
                assert out.total_dimension(n) == dimension(w, n) * n


def test_dimension_degenerate_n1():
    for w in all_words(3):
        assert dimension(w, 1) == 1


def test_frobenius_multiplicity():
    for w in all_words(4):
        r = Irrep(2, w)
        assert dict(fuse(r, conjugate_irrep(r)).items()).get(R(0), 0) == 1


def test_associativity_sample():
    r, s, t = R(0, "ab"), R(0, "ba"), R(0, "a")
    left = fuse_results(fuse(r, s), FusionResult([t]))
    right = fuse_results(FusionResult([r]), fuse(s, t))
    assert left == right


def test_conjugation_antihomomorphism_sample():
    for r, s in itertools.product([R(0, "ab"), R(1, "b")], [R(0, "ba"), R(-1, "aab")]):
        conj = FusionResult([(conjugate_irrep(t), m) for t, m in fuse(r, s).items()])
        assert conj == fuse(conjugate_irrep(s), conjugate_irrep(r))


def test_check_fusion_ring_small():
    report = check_fusion_ring(2, 2)
    assert report.verified
    # dims check at (0,a) x (0,b), n=3: 9 = 8 + 1
    out = fuse(R(0, "a"), R(0, "b"))
    assert out.total_dimension(3) == 9
    assert dimension(W("ab"), 3) == 8


def test_parse_irrep():
    assert parse_irrep("(3; aabb)") == R(3, "aabb")
    assert parse_irrep("(0; e)") == R(0)
    assert parse_irrep("(-2; ba)") == R(-2, "ba")
    with pytest.raises(ValueError):
        parse_irrep("3; ab")
    with pytest.raises(ValueError):
        parse_irrep("(1; xy)")


def test_fusion_result_rendering():
    out = fuse(R(0, "a"), R(0, "b"))
    assert str(out) == "1 x (0; e)\n1 x (0; ab)"


@pytest.mark.parametrize("n, max_len", [(0, 2), (-1, 1), (2, -1), (1, -3)])
def test_check_fusion_ring_rejects_bad_bounds(n, max_len):
    with pytest.raises(ValueError):
        check_fusion_ring(n, max_len)


# At n = 1 every class is one-dimensional, so dim(r x s) fails wherever the
# product has more than one summand; recorded from the per-Irrep audit.
N1_AUDIT = """\
fusion-ring: Unverified
  exhaustive over 7 words, n=1: Unverified
  dim((0; a),(0; b)): Unverified
  dim((0; a),(0; ba)): Unverified
  dim((0; a),(0; bb)): Unverified
  dim((0; b),(0; a)): Unverified
  dim((0; b),(0; aa)): Unverified
  dim((0; b),(0; ab)): Unverified
  dim((0; aa),(0; b)): Unverified
  dim((0; aa),(0; ba)): Unverified
  dim((0; aa),(0; bb)): Unverified
  dim((0; ab),(0; a)): Unverified
  dim((0; ab),(0; aa)): Unverified
  dim((0; ab),(0; ab)): Unverified
  dim((0; ba),(0; b)): Unverified
  dim((0; ba),(0; ba)): Unverified
  dim((0; ba),(0; bb)): Unverified
  dim((0; bb),(0; a)): Unverified
  dim((0; bb),(0; aa)): Unverified
  dim((0; bb),(0; ab)): Unverified
"""


def test_check_fusion_ring_n1_failure_report():
    assert check_fusion_ring(1, 2).render() == N1_AUDIT


def _first_failures(report):
    first = {}
    for name, verdict in report.checks[1:]:
        assert verdict == "Unverified"
        first.setdefault(name.split("(")[0], name)
    return first


def _break_kernel(monkeypatch, keep):
    """Replace the product kernel by one that drops each summand u of
    w x v for which keep(w, v, u) is false."""
    real = fusion._fuse
    monkeypatch.setattr(
        fusion, "_fuse", lambda w, v: tuple(u for u in real(w, v) if keep(w, v, u))
    )


def test_audit_catches_a_kernel_without_the_empty_summand(monkeypatch):
    # the dropped summand is fixed by conjugation, so no conj line fails
    _break_kernel(monkeypatch, lambda w, v, u: u != "")
    report = check_fusion_ring(2, 2)
    assert report.verdict == "Unverified"
    assert _first_failures(report) == {
        "dim": "dim((0; e),(0; e))",
        "assoc": "assoc((0; e),(0; e),(0; a))",
        "frobenius": "frobenius((0; e))",
    }


def test_audit_catches_a_kernel_that_breaks_conjugation(monkeypatch):
    # drop the full concatenation only when the left word is the longer one
    _break_kernel(monkeypatch, lambda w, v, u: not (len(w) > len(v) and u == w + v))
    report = check_fusion_ring(2, 2)
    assert report.verdict == "Unverified"
    first = _first_failures(report)
    assert first["dim"] == "dim((0; a),(0; e))"
    assert first["conj"] == "conj((0; e),(0; a))"
    assert first["assoc"] == "assoc((0; a),(0; e),(0; a))"
    assert "frobenius" not in first
