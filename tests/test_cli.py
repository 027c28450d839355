"""The batch front end: output shapes, exit-code contract, determinism."""

import io
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from braidalg import graphalg, simplify, uqf
from braidalg.algebra import scalar_mat_inverse
from braidalg.cli import _refuse_above_bound, build_parser, run
from braidalg.graphalg import check_dagger, cycle_graph
from braidalg.uqf import _MAX_Z_POWER


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_admissible_identity(tmp_path):
    code, out, _ = invoke(["admissible", "--F", "I", "--n", "3", "--d", "1,2,3"])
    assert code == 0
    assert "d' = (-1,-2,-3)" in out
    assert "d0 = 0" in out


def test_admissible_no_solution(tmp_path):
    mat = tmp_path / "dense.mat"
    mat.write_text("1 1\n1 -1\n")
    code, out, _ = invoke(["admissible", "--F", str(mat), "--d", "0,1"])
    assert code == 2
    assert out.strip() == "NoSolution"


def test_presentation_dump():
    code, out, _ = invoke(["presentation", "--F", "I", "--n", "2", "--d", "0,1"])
    assert code == 0
    for section in ("[generators]", "[degrees]", "[relations]"):
        assert section in out


def test_bosonize_reports_verified():
    code, out, _ = invoke(["bosonize", "--F", "I", "--n", "2", "--d", "0,1"])
    assert code == 0
    assert "[coproduct]" in out
    assert "boso-coproduct: Verified" in out


def test_kms_command(tmp_path):
    graph = tmp_path / "o2.graph"
    graph.write_text("vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\n")
    code, out, _ = invoke(["kms", "--graph", str(graph), "--len", "1"])
    assert code == 0
    assert "rho = 2" in out
    assert "exact mode" in out
    assert "1\t1\t1/2" in out


def test_kms_reports_an_unsatisfied_condition(tmp_path, monkeypatch):
    graph = tmp_path / "o2.graph"
    graph.write_text("vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\n")
    monkeypatch.setattr(graphalg, "check_dagger", lambda g: None)
    code, out, err = invoke(["kms", "--graph", str(graph), "--len", "1"])
    assert (code, out, err) == (2, "graph: 1 vertices, 2 edges\ndagger: NotSatisfied\n", "")


def test_kms_float_mode_flagged(tmp_path):
    graph = tmp_path / "fib.graph"
    graph.write_text(
        "vertices 2\nedge 1 1 1 deg 1\nedge 2 1 2 deg 1\nedge 3 2 1 deg 1\n"
    )
    code, out, _ = invoke(["kms", "--graph", str(graph), "--len", "1"])
    assert code == 0
    assert "float mode" in out


@pytest.mark.parametrize(
    "prop", ["coproduct", "fundamental", "cuntz-action", "matricial", "quotient"]
)
def test_verify_props_exit_zero(prop):
    code, out, _ = invoke(["verify", "--prop", prop, "--n", "2", "--d", "0,1"])
    assert code == 0, out
    assert "Verified" in out


def test_verify_kms_preserve():
    code, out, _ = invoke(
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--len", "1"]
    )
    assert code == 0
    assert "kms-preservation: Verified" in out


def test_verify_with_diagonal_F_and_root_specialization():
    code, out, _ = invoke(
        [
            "verify",
            "--prop",
            "coproduct",
            "--n",
            "2",
            "--d",
            "0,1",
            "--F",
            "diag:1,2",
            "--zeta",
            "root:4",
        ]
    )
    assert code == 0
    assert "zeta=root:4" in out


def test_fusion_command():
    code, out, _ = invoke(["fusion", "--left", "(0; a)", "--right", "(0; b)", "--n", "2"])
    assert code == 0
    assert "1 x (0; ab)" in out
    assert "1 x (0; e)" in out
    assert "dims: 4 = 1 + 3" in out


def test_dims_command():
    code, out, _ = invoke(["dims", "--n", "2", "--maxlen", "2"])
    assert code == 0
    assert "ab\t3" in out


@pytest.mark.parametrize("argv", [["--help"], ["verify", "-h"]])
def test_help_goes_to_the_output_stream(argv, capsys):
    code, out, err = invoke(argv)
    assert code == 0 and out.startswith("usage: braidalg") and err == ""
    assert capsys.readouterr() == ("", "")


def test_usage_error_exit_one():
    code, _, err = invoke(["verify", "--prop", "coproduct", "--n", "2", "--d", "0,1,2"])
    assert code == 1
    assert "error" in err


def test_empty_suite_is_an_input_error():
    # --len -1 leaves no (alpha, beta) pair to check: no verdict may be printed
    code, out, err = invoke(
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--len", "-1"]
    )
    assert code == 1
    assert "Verified" not in out
    assert "no checks" in err


def test_negative_degree_list_after_a_space():
    spaced = invoke(["verify", "--prop", "matricial", "--n", "2", "--d", "-1,2"])
    attached = invoke(["verify", "--prop", "matricial", "--n", "2", "--d=-1,2"])
    assert attached[0] == 0
    assert spaced == attached


def test_fusion_zero_dimension_parameter_is_an_input_error():
    code, out, err = invoke(["fusion", "--left", "(0; a)", "--right", "(0; b)", "--n", "0"])
    assert code == 1
    assert "dims:" not in out
    assert "error" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_fusion_bad_dimension_parameter_prints_nothing(n):
    code, out, err = invoke(["fusion", "--left", "(0; a)", "--right", "(0; b)", "--n", n])
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("degrees", ["0,,1", "0,1,", ",0,1"])
def test_empty_degree_token_is_an_input_error(degrees):
    code, out, err = invoke(["verify", "--prop", "coproduct", "--n", "2", "--d", degrees])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_dims_negative_maxlen_is_an_input_error():
    code, out, err = invoke(["dims", "--n", "2", "--maxlen", "-1"])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_kms_negative_len_is_an_input_error(tmp_path):
    graph = tmp_path / "o2.graph"
    graph.write_text("vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\n")
    code, out, err = invoke(["kms", "--graph", str(graph), "--len", "-2"])
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": 1, "edges": 5}',
        '{"vertices": 1, "edges": [{"id": 1, "src": 1, "dst": 1}, 7]}',
        '{"vertices": [1], "edges": [{"id": 1, "src": 1, "dst": 1}]}',
        '{"vertices": 1, "edges": [{"id": 1, "src": 1, "dst": 1, "deg": null}]}',
        '{"vertices": 1, "edges": [{"id": 1, "src": 1, "dst": 1}, {"id": "x", "src": 1, "dst": 1}]}',
        '{"vertices": 1, "edges": [{"id": 1.9, "src": 1, "dst": 1}]}',
        '{"vertices": 1, "edges": [{"id": 1, "src": 1.7, "dst": 1}]}',
        '{"vertices": 1, "edges": [{"id": 1, "src": 1, "dst": 1, "deg": 2.5}]}',
        '{"vertices": true, "edges": [{"id": 1, "src": 1, "dst": 1}]}',
        '{"vertices": "1", "edges": [{"id": 1, "src": 1, "dst": 1}]}',
    ],
    ids=[
        "edges-not-a-list", "edge-not-an-object", "vertices-a-list", "deg-null", "mixed-id-types",
        "id-float", "src-float", "deg-float", "vertices-bool", "vertices-string",
    ],
)
def test_kms_malformed_json_graph_is_an_input_error(tmp_path, text):
    graph = tmp_path / "bad.json"
    graph.write_text(text)
    code, out, err = invoke(["kms", "--graph", str(graph)])
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("prop", ["quotient", "matricial"])
@pytest.mark.parametrize("F", ["diag:1", "diag:1,2,3"])
def test_F_of_the_wrong_size_is_an_input_error(prop, F):
    code, out, err = invoke(["verify", "--prop", prop, "--n", "2", "--d", "0,1", "--F", F])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_quotient_with_a_non_real_F_is_an_input_error():
    code, out, err = invoke(["verify", "--prop", "quotient", "--n", "2", "--d", "0,1", "--F", "diag:z,1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# the files named in argv as "{name}"
ERROR_FILES = {
    "dense": "1 1\n0 1\n",
    "cycle": "vertices 2\nedge 1 1 2 deg 1\nedge 2 2 1 deg 1\n",
    "cuntz": "vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\n",
    "badline": "vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\nloops 2\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        # a singular F has a zero ftilde entry, which no state can weight
        ["verify", "--prop", "matricial", "--n", "2", "--d", "0,1", "--F", "diag:0,1"],
        # matricial and quotient need a diagonal F
        ["verify", "--prop", "matricial", "--n", "2", "--d", "0,1", "--F", "{dense}"],
        ["verify", "--prop", "quotient", "--n", "2", "--d", "0,1", "--F", "{dense}"],
        ["admissible", "--F", "diag:1,2", "--d", "0,1,2"],
        ["verify", "--prop", "coproduct", "--n", "0", "--d", "0"],
        # the dense F is admissible at d = (0,0), but its u' has entries that are not monomial
        ["verify", "--prop", "coproduct", "--n", "2", "--d", "0,0", "--F", "{dense}"],
        ["verify", "--prop", "fundamental", "--n", "2", "--d", "0,0", "--F", "{dense}"],
        # an empty term is an error, not 0: "1 +  + 2" must not read as 3
        ["verify", "--prop", "quotient", "--n", "2", "--d", "0,1", "--F", "diag:1 +  + 2,1"],
        # --zeta is checked before the presentation dump is written
        ["bosonize", "--n", "2", "--d", "0,1", "--zeta", "root:"],
        # a circle power z^d is spelled out letter by letter, so a huge d is refused
        ["verify", "--prop", "fundamental", "--n", "1", "--d", "9999999999"],
        ["bosonize", "--n", "2", "--d", f"0,{_MAX_Z_POWER + 1}"],
        # argparse's own rejections are reported on the error stream given to run
        ["dims", "--maxlen", "1"],
        ["verify", "--prop", "kms-preserve", "--d", "0,1", "--len", "x"],
        ["verify", "--prop", "no-such-prop", "--d", "0,1"],
        # --F is read for every suite, also for the two that do not use it
        ["verify", "--prop", "cuntz-action", "--n", "2", "--d", "0,1", "--F", "/nonexistent"],
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--F", "/nonexistent"],
        ["verify", "--prop", "cuntz-action", "--n", "2", "--d", "0,1", "--F", "diag:1,2,3"],
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--F", "diag:1"],
        # more than 10^6 path pairs, words or checks are refused before any output
        ["kms", "--graph", "{cycle}", "--len", "99999999999"],
        ["dims", "--n", "2", "--maxlen", "99999999999"],
        ["verify", "--prop", "kms-preserve", "--d", "1,2", "--len", "99999999999"],
        ["kms", "--graph", "{cuntz}", "--len", "9"],
        ["dims", "--n", "2", "--maxlen", "19"],
        ["verify", "--prop", "kms-preserve", "--d", "1,2", "--len", "9"],
        # a graph line that is neither 'vertices m' nor 'edge i s r deg k'
        ["kms", "--graph", "{badline}", "--len", "1"],
    ],
    ids=[
        "matricial-singular",
        "matricial-dense",
        "quotient-dense",
        "admissible-d-too-long",
        "n-zero",
        "coproduct-dense",
        "fundamental-dense",
        "quotient-empty-term",
        "bosonize-bad-zeta",
        "fundamental-huge-degree",
        "bosonize-circle-power-above-bound",
        "argparse-missing-option",
        "argparse-bad-int",
        "argparse-bad-choice",
        "cuntz-action-missing-F",
        "kms-preserve-missing-F",
        "cuntz-action-F-too-large",
        "kms-preserve-F-too-small",
        "kms-huge-len",
        "dims-huge-maxlen",
        "kms-preserve-huge-len",
        "kms-1023-paths",
        "dims-1048575-words",
        "kms-preserve-1023-paths",
        "kms-bad-graph-line",
    ],
)
def test_input_errors_print_nothing(tmp_path, argv):
    for name, text in ERROR_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = invoke([arg.format(**{name: tmp_path / name for name in ERROR_FILES}) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_the_size_bound_admits_exactly_10_to_the_6():
    _refuse_above_bound([10**6 - 1, 1], "words")
    _refuse_above_bound([999, 1], "path pairs", pairs=True)
    with pytest.raises(ValueError, match="more than 10\\^6 words"):
        _refuse_above_bound([10**6, 1], "words")
    with pytest.raises(ValueError, match="more than 10\\^6 path pairs"):
        _refuse_above_bound([1000, 1], "path pairs", pairs=True)


@pytest.mark.parametrize("prop", ["cuntz-action", "kms-preserve"])
def test_a_valid_F_is_ignored_by_the_cuntz_suites(prop):
    argv = ["verify", "--prop", prop, "--n", "2", "--d", "0,1", "--len", "1"]
    plain = invoke(argv)
    assert plain[0] == 0
    assert invoke(argv + ["--F", "diag:1,2"]) == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--prop", "coproduct", "--n", "2", "--d", "0,1", "--F", "diag:1,2"],
        ["verify", "--prop", "fundamental", "--n", "2", "--d", "0,1", "--F", "diag:1,2"],
        ["verify", "--prop", "cuntz-action", "--n", "2", "--d", "0,1"],
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--len", "1"],
        ["bosonize", "--F", "diag:1,2", "--d", "0,1"],
        ["verify", "--prop", "quotient", "--n", "2", "--d", "0,1", "--F", "diag:1,2"],
        None,  # graph_universal_presentation on the 2-cycle
    ],
    ids=["coproduct", "fundamental", "cuntz-action", "kms-preserve", "bosonize", "quotient", "graph-two-cycle"],
)
def test_F_is_inverted_once_per_request(monkeypatch, argv):
    calls = []

    def counting_inverse(F):
        calls.append(F)
        return scalar_mat_inverse(F)

    monkeypatch.setattr(uqf, "scalar_mat_inverse", counting_inverse)
    if argv is None:
        g = cycle_graph(2, (0, 1))
        assert uqf.graph_universal_presentation(g, check_dagger(g))[2].verified
    else:
        assert invoke(argv)[0] == 0
    assert len(calls) == 1


def test_a_huge_degree_outside_the_circle_power_still_verifies():
    code, out, _ = invoke(["verify", "--prop", "coproduct", "--n", "2", "--d", "0,9999999999"])
    assert code == 0
    assert "Unverified" not in out


@pytest.mark.parametrize(
    "argv",
    [["admissible", "--F", "I", "--d", "0,1"], ["presentation", "--d", "0,1"], ["bosonize", "--d", "0,1"]],
    ids=["admissible", "presentation", "bosonize"],
)
def test_n_is_read_from_d_when_missing(argv):
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert out == invoke(argv + ["--n", "2"])[1]


def test_diag_zero_denominator_is_an_input_error():
    code, out, err = invoke(["admissible", "--F", "diag:1/0", "--d", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_unknown_command_exit_one():
    code, _, _ = invoke(["no-such-command"])
    assert code == 1


def test_missing_file_exit_one():
    code, _, err = invoke(["kms", "--graph", "/nonexistent/file.graph"])
    assert code == 1


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [["kms", "--graph", "{cuntz}", "--len", "8"], ["verify", "--prop", "coproduct", "--n", "2", "--d", "0,1"]],
    ids=["kms", "verify"],
)
def test_a_failed_write_is_not_an_input_error(tmp_path, argv):
    (tmp_path / "cuntz").write_text(ERROR_FILES["cuntz"])
    err = io.StringIO()
    with pytest.raises(BrokenPipeError):
        run([arg.format(cuntz=tmp_path / "cuntz") for arg in argv], _ClosedPipe(), err)
    assert err.getvalue() == ""


def test_main_ends_quietly_when_the_reader_closes_the_pipe(tmp_path):
    # `braidalg kms --graph o2 --len 8 | head -1`: 7.8 MB of table, of which one line is read
    graph = tmp_path / "o2.graph"
    graph.write_text(ERROR_FILES["cuntz"])
    cmd = [sys.executable, "-m", "braidalg.cli", "kms", "--graph", str(graph), "--len", "8"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"graph: 1 vertices, 2 edges\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


class _Formatted(Exception):
    pass


def test_an_untraced_verdict_formats_no_step(monkeypatch):
    argvs = [
        ["verify", "--prop", "coproduct", "--n", "2", "--d", "0,1"],
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--len", "2"],
    ]
    unpatched = [invoke(argv) for argv in argvs]

    def refuse(word):
        raise _Formatted(word)

    monkeypatch.setattr(simplify, "lword_str", refuse)
    for argv, (code, out, err) in zip(argvs, unpatched):
        assert code == 0 and err == ""
        assert invoke(argv) == (0, out, "")
        with pytest.raises(_Formatted):
            invoke(argv + ["--trace"])


def test_bad_zeta_flag():
    code, _, err = invoke(["verify", "--prop", "coproduct", "--n", "1", "--d", "0", "--zeta", "sideways"])
    assert code == 1


def test_zero_size_rejected():
    code, _, err = invoke(["verify", "--prop", "coproduct", "--n", "0", "--d", ""])
    assert code == 1
    assert "error" in err


@given(st.text(alphabet="abexy();0123456789-", max_size=12))
@settings(max_examples=40)
def test_fusion_malformed_inputs_never_crash(text):
    code, _, _ = invoke(["fusion", "--left", text, "--right", "(0; a)"])
    assert code in (0, 1)


def test_presentation_golden_n1():
    code, out, _ = invoke(["presentation", "--F", "I", "--n", "1", "--d", "0"])
    assert code == 0
    assert out == (
        "[generators]\n"
        "u[1,1] deg 0\n"
        "\n"
        "[degrees]\n"
        "d = (0)\n"
        "d' = (0)\n"
        "d0 = 0\n"
        "\n"
        "[relations]\n"
        "unitary u:\n"
        "  [ u[1,1] ]\n"
        "unitary u':\n"
        "  [ u*[1,1] ]\n"
    )


def test_fusion_golden():
    code, out, _ = invoke(["fusion", "--left", "(1; aa)", "--right", "(2; bb)", "--n", "2"])
    assert code == 0
    assert out == (
        "1 x (3; e)\n"
        "1 x (3; aabb)\n"
        "1 x (3; ab)\n"
        "dims: 16 = 1 + 12 + 3\n"
    )


@given(st.text(alphabet="01 /*sqrt()z^-\n", max_size=30))
@settings(max_examples=40)
def test_admissible_malformed_matrix_files_never_crash(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mat") / "m.mat"
    path.write_text(text)
    code, _, _ = invoke(["admissible", "--F", str(path), "--d", "0"])
    assert code in (0, 1, 2)


# a diag: list is the one input whose entries may hold a ' + ' term separator
@given(st.text(alphabet="0123456789 +-,/*sqrt()z^", max_size=30))
@settings(max_examples=60, deadline=None)
def test_admissible_malformed_diag_lists_never_crash(text):
    code, _, err = invoke(["admissible", "--F", "diag:" + text])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_outputs_are_deterministic():
    for argv in (
        ["verify", "--prop", "coproduct", "--n", "2", "--d", "0,1", "--trace"],
        ["verify", "--prop", "cuntz-action", "--n", "2", "--d", "0,1", "--trace"],
        ["presentation", "--F", "I", "--n", "2", "--d", "0,1"],
        ["dims", "--n", "3", "--maxlen", "3"],
    ):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_reused_parser_carries_nothing_between_requests(tmp_path):
    graph = tmp_path / "o2.graph"
    graph.write_text("vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\n")
    verify = ["verify", "--prop", "coproduct", "--n", "2", "--d", "0,1"]
    kms = ["kms", "--graph", str(graph)]
    for first, second in ((verify + ["--trace"], verify), (kms + ["--len", "2"], kms)):
        invoke(first)
        reused = invoke(second)
        build_parser.cache_clear()
        assert invoke(second) == reused


def test_admissible_singular_matrix_is_an_input_error(tmp_path):
    mat = tmp_path / "singular.mat"
    mat.write_text("1 1\n1 1\n")
    code, out, err = invoke(["admissible", "--F", str(mat), "--n", "2"])
    assert code == 1
    assert out == ""
    assert "SingularMatrix" in err


# -- grammar fuzz ------------------------------------------------------------

# Edge-case pools, a valid value first.  Sizes stay small (n <= 3, --len <= 2)
# or pass the size bound by far, because the cost of an accepted --len or
# --maxlen grows exponentially up to that bound of 10^6.
FUZZ_FILES = {
    "{ident}": "1 0\n0 1\n",
    "{dense}": "1 1\n0 1\n",
    "{ragged}": "1 0\n0\n",
    "{blank}": "# nothing\n",
    "{word}": "1 x\n0 1\n",
    "{cuntz}": "vertices 1\nedge 1 1 1 deg 1\nedge 2 1 1 deg 1\n",
    "{sink}": "vertices 2\nedge 1 1 2 deg 1\n",
    "{outside}": "vertices 2\nedge 1 0 1 deg 1\nedge 2 1 2 deg 1\n",
    "{json}": '{"vertices": 1, "edges": [{"id": 1, "src": 1, "dst": 1}, {"id": 2, "src": 1, "dst": 1}]}',
    "{json-far}": '{"vertices": 1, "edges": [{"id": 1, "src": 1, "dst": 5}]}',
    "{json-no-dst}": '{"vertices": 1, "edges": [{"id": 1, "src": 1}]}',
    "{json-null}": '{"vertices": null, "edges": null}',
    "{json-cut}": '{"vertices": 1, ',
}
FUZZ_POOLS = {
    "--n": ["2", "1", "3", "0", "-1", "x", ""],
    "--d": ["0,1", "1,2", "0,1,2", "0", "-1,2", "0,0", "", ",", "0,,1", "a", "1.5", "0,99999999999", f"0,{_MAX_Z_POWER + 1}"],
    "--F": ["diag:1,2", "I", "{ident}", "diag:", "diag:0,1", "diag:z,1", "diag:1/0", "diag:sqrt(2),1",
            "diag:-1,1", "diag:1,", "diag:1 + z,1", "diag:1,2,3,4", "{dense}", "{ragged}", "{blank}", "{word}",
            "{missing}"],
    "--zeta": ["formal", "root:8", "root:3", "root:1", "root:0", "root:", "root:-2", "root:x", "sideways"],
    "--len": ["1", "2", "0", "-1", "x", "", "99999999999"],
    "--maxlen": ["2", "0", "-1", "x", "99999999999"],
    "--graph": ["{cuntz}", "{json}", "{sink}", "{outside}", "{json-far}", "{json-no-dst}", "{json-null}",
                "{json-cut}", "{blank}", "{missing}"],
    "--left": ["(0; a)", "(1; ab)", "(0; e)", "(-1; ba)", "(; a)", "(0 a)", "(x; a)", "(0; c)", "(0; )", ""],
    "--prop": ["coproduct", "fundamental", "cuntz-action", "kms-preserve", "matricial", "quotient", "nope"],
}
FUZZ_POOLS["--right"] = FUZZ_POOLS["--left"]
FUZZ_OPTIONS = {
    "admissible": ("--F", "--d", "--n"),
    "presentation": ("--F", "--d", "--n"),
    "bosonize": ("--F", "--d", "--n", "--zeta"),
    "kms": ("--graph", "--len"),
    "verify": ("--prop", "--n", "--d", "--F", "--zeta", "--len"),
    "fusion": ("--left", "--right", "--n"),
    "dims": ("--n", "--maxlen"),
}


def fuzz_argv(rng: random.Random) -> list[str]:
    """One argv: a subcommand, each option dropped 1 time in 8, each value valid 4 times in 5 or more."""
    command = rng.choice(sorted(FUZZ_OPTIONS))
    argv = [command]
    for option in FUZZ_OPTIONS[command]:
        # verify always gets a --len from the pool: its default of 3 is slow at n = 3
        if (command, option) == ("verify", "--len") or rng.random() < 7 / 8:
            pool = FUZZ_POOLS[option]
            argv += [option, rng.choice(pool[:2] if rng.random() < 0.8 else pool)]
    if command in ("bosonize", "verify") and rng.random() < 0.2:
        argv.append("--trace")
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--bogus", "-x", "7"]))
    return argv


def test_cli_grammar_fuzz(tmp_path, capsys):
    files = {name: tmp_path / name.strip("{}") for name in [*FUZZ_FILES, "{missing}"]}
    for name, text in FUZZ_FILES.items():
        files[name].write_text(text)
    rng = random.Random(0)
    codes = []
    for _ in range(500):
        argv = [str(files[a]) if a in files else a for a in fuzz_argv(rng)]
        code, out, err = invoke(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert out == "" and err.startswith("error:"), (argv, out, err)
        # nothing reaches the process's own streams, argparse's complaints included
        assert capsys.readouterr() == ("", ""), argv
        codes.append(code)
    # the pools reach both verdicts and input errors, not only one of them
    assert codes.count(0) >= 100 and codes.count(1) >= 100
