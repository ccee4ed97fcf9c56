"""Front-end behavior: exit codes, report shapes, determinism, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supermod.cli import build_parser, main
from supermod.dmodules import parse_token, spec_from_json
from supermod.scalars import scalar

LAURENT = '{"family":"laurent","alpha":"a"}'
OMEGA = '{"family":"omega","lambda":"2"}'
FRACTION = '{"family":"fraction","alphas":["1/3","1/3"],"betas":["0","1"]}'


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# the documented examples

def test_verify_algebra_passes(capsys):
    code, out, _ = run(capsys, "verify-algebra", "--sector", "0", "--window", "3")
    data = json.loads(out)
    assert code == 0
    assert data["schema"] == "1" and data["kind"] == "jacobi"
    assert data["passed"] is True and data["violationCount"] == 0


def test_act_emits_bare_vector_map(capsys):
    code, out, _ = run(capsys, "act", "--module", LAURENT, "--b", "b",
                       "--generator", "L[1]", "--vector", "t^0")
    assert code == 0
    assert out == '{\n  "t^1": "-(a + b)"\n}\n'


def test_probe_reports_the_omega_gap_with_exit_one(capsys):
    code, out, _ = run(capsys, "probe", "--module", OMEGA, "--b", "1/2",
                       "--seed", "D^0", "--window", "2,4,4")
    data = json.loads(out)
    assert code == 1
    assert data["rank"] == 9 and data["ambient"] == 10
    assert data["missing"] == ["D^0~"]


# ----------------------------------------------------------------------
# exit statuses

def test_probe_full_rank_exits_zero(capsys):
    code, out, _ = run(capsys, "probe", "--module", LAURENT, "--b", "b",
                       "--seed", "t^0", "--window", "2,3,4",
                       "--specialize", "a=1/3,b=1/3")
    assert code == 0
    assert json.loads(out)["full"] is True


def test_unknown_parameter_exits_two(capsys):
    code, out, err = run(capsys, "probe", "--module", LAURENT, "--b", "b",
                         "--seed", "t^0", "--window", "2,3,4",
                         "--specialize", "zz=1")
    assert code == 2 and out == ""
    assert "zz" in err


def test_malformed_spec_exits_two(capsys):
    code, out, err = run(capsys, "act", "--module", '{"family":"nope"}',
                         "--b", "b", "--generator", "L[0]", "--vector", "t^0")
    assert code == 2 and out == "" and "error:" in err


def test_singular_lemma_specialization_exits_two(capsys):
    code, _, err = run(capsys, "check-lemma", "--which", "T", "--module",
                       LAURENT, "--b", "1/2", "--k", "1", "--d", "1",
                       "--vector", "t^0")
    assert code == 2 and "degenerates" in err


def test_bad_window_shapes_exit_two(capsys):
    code, _, err = run(capsys, "probe", "--module", LAURENT, "--b", "b",
                       "--seed", "t^0", "--window", "2,4")
    assert code == 2 and "--window" in err
    code, _, err = run(capsys, "probe", "--module", LAURENT, "--b", "b",
                       "--seed", "t^0", "--window", "2,0,4")
    assert code == 2 and ">= 1" in err


def test_missing_subcommand_and_help(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_verification_failure_still_emits_report(capsys):
    code, out, _ = run(capsys, "check-submodule", "--module", LAURENT,
                       "--b", "b", "--vector", "t^0", "--window", "2,3")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False and data["violations"]


# ----------------------------------------------------------------------
# the remaining subcommands

def test_verify_morphism_symbolic_b(capsys):
    code, out, _ = run(capsys, "verify-morphism", "--map", "sigma-b",
                       "--window", "2")
    assert code == 0 and json.loads(out)["kind"] == "hom-sigma-b"


def test_act_infers_the_sector_from_a_half_integer_index(capsys):
    code, out, _ = run(capsys, "act", "--module", LAURENT, "--b", "b",
                       "--generator", "G+[3/2]", "--vector", "t^0")
    assert code == 0
    assert json.loads(out) == {"t^1~": "-(2*a + 4*b)"}


def test_action_table_covers_every_generator(capsys):
    code, out, _ = run(capsys, "action-table", "--module", OMEGA, "--b", "1/3",
                       "--window", "1")
    data = json.loads(out)
    assert code == 0 and data["kind"] == "action-table"
    assert set(data["entries"]) == {"C", "L[-1]", "L[0]", "L[1]", "H[-1]",
                                    "H[0]", "H[1]", "G+[-1]", "G+[0]", "G+[1]",
                                    "G-[-1]", "G-[0]", "G-[1]"}
    assert all(v == {} for v in data["entries"]["C"].values())


def test_check_module_passes(capsys):
    code, out, _ = run(capsys, "check-module", "--module", LAURENT, "--b", "b",
                       "--window", "2,2")
    assert code == 0 and json.loads(out)["kind"] == "module-axiom"


def test_check_lemma_t_and_q(capsys):
    code, out, _ = run(capsys, "check-lemma", "--which", "T", "--module",
                       LAURENT, "--b", "b", "--k", "2", "--d", "-1",
                       "--vector", "t^1")
    assert code == 0 and json.loads(out)["kind"] == "t-operator"
    code, out, _ = run(capsys, "check-lemma", "--which", "Q", "--module",
                       LAURENT, "--b", "0", "--m", "-1", "--d", "2",
                       "--vector", "t^2~")
    assert code == 0 and json.loads(out)["kind"] == "q-operator"


def test_check_iso_witnesses(capsys):
    for extra in (["--witness", "phi", "--alpha", "1/3"],
                  ["--witness", "psi"],
                  ["--witness", "identity", "--module", OMEGA, "--b", "b"]):
        code, out, _ = run(capsys, "check-iso", "--window", "2,4", *extra)
        assert code == 0, out
        assert json.loads(out)["kind"] == "iso-witness"


def test_check_submodule_confirms_invariance(capsys):
    vectors = [v for n in range(-2, 3) for v in ([f"t^{n}"] if n == 0 else
                                                 [f"t^{n}", f"t^{n}~"])]
    args = ["check-submodule", "--module", '{"family":"laurent","alpha":"0"}',
            "--b", "1/2", "--window", "1,2"]
    for vec in vectors:
        args += ["--vector", vec]
    code, out, _ = run(capsys, *args)
    assert code == 0, out


def test_check_submodule_outside_the_window_exits_two(capsys):
    code, out, err = run(capsys, "check-submodule", "--module",
                         '{"family":"laurent","alpha":"1/3"}', "--b", "1/3",
                         "--vector", "t^5", "--window", "1,1")
    assert code == 2 and out == ""
    assert "outside the token window" in err


# ----------------------------------------------------------------------
# output plumbing

def test_reports_are_byte_deterministic(capsys, monkeypatch):
    monkeypatch.delenv("SUPERMOD_SEED", raising=False)
    args = ("probe", "--module", LAURENT, "--b", "b", "--seed", "t^0",
            "--window", "2,3,4")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0


def test_text_format(capsys):
    code, out, _ = run(capsys, "verify-algebra", "--sector", "1/2",
                       "--window", "2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "passed: true" in lines and "violations: []" in lines


def test_text_format_lists_the_missing_tokens(capsys):
    code, out, _ = run(capsys, "probe", "--module", OMEGA, "--b", "1/2",
                       "--seed", "D^0", "--window", "2,4,4", "--format", "text")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("missing:")
    assert lines[at + 1] == "  - D^0~" and "full: false" in lines


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-algebra", "--window", "2",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["passed"] is True


def test_printed_vectors_reparse_to_equal_values(capsys):
    spec = spec_from_json(LAURENT)
    _, out, _ = run(capsys, "act", "--module", LAURENT, "--b", "b",
                    "--generator", "G+[-2]", "--vector", "2*t^1 + t^0~")
    data = json.loads(out)
    assert data
    for token_text, coeff_text in data.items():
        tok = parse_token(spec, token_text)
        assert tok.family == "laurent"
        assert scalar(coeff_text).render() == coeff_text


# ----------------------------------------------------------------------
# the exit-code contract: usage errors exit 2 with a diagnostic, no traceback

#: the full diagnostic, where the input's own text must read back plainly
EXACT_ERRORS = {
    "spec-n-not-integer":
        "error: module spec field 'n' must be an integer, got \"x\"\n",
    "spec-repeated-pole": "error: poles must be distinct, got 0, 0\n",
    "generator-zero-denominator":
        "error: index 1/0 has a zero denominator in 'L[1/0]'\n",
    "vector-zero-denominator": "error: the pole 1/0 has a zero denominator\n",
    "spec-pole-zero-denominator": "error: the pole 1/0 has a zero denominator\n",
    "probe-seed-outside-window": "error: the seed lies outside the token window\n",
    "probe-seed-outside-window-omega":
        "error: the seed lies outside the token window\n",
}


@pytest.mark.parametrize("args", [
    ("verify-algebra", "--window", "0"),
    ("verify-morphism", "--map", "varpi", "--window", "-2"),
    ("action-table", "--module", LAURENT, "--b", "b", "--window", "-1"),
    ("probe", "--module", LAURENT, "--b", "b", "--seed", "t^0",
     "--window", "2,3,4", "--specialize", "a=1/0"),
    ("act", "--module", LAURENT, "--b", "b", "--generator", "G[1]",
     "--vector", "t^0"),
    *(("act", "--module", spec, "--b", "b", "--generator", "L[1]",
       "--vector", "t^0") for spec in (
        '{"family":"laurent","alpha":null}',
        '{"family":"laurent","alpha":1.5}',
        '{"family":"omega","lambda":true}',
        '{"family":"degree","n":[2]}',
        '{"family":"degree","n":"x"}',
        '{"family":"fraction","alphas":5,"betas":["0"]}',
        '{"family":"fraction","alphas":"ab","betas":["0","1"]}',
        '{"family":"fraction","alphas":["a",null],"betas":["0","1"]}',
        '{"family":"laurent","alpha":"a","lambda":"2"}',
        '{"family":"fraction","alphas":["a","c"],"betas":["0","0"]}')),
    ("probe", "--module", LAURENT, "--b", "b", "--seed", "t^0",
     "--window", "2,3,4", "--specialize", "a=1/3,a=2/5"),
    ("act", "--module", LAURENT, "--b", "b", "--generator", "L[1/0]",
     "--vector", "t^0"),
    ("act", "--module", FRACTION, "--b", "b", "--generator", "L[1]",
     "--vector", "(t-1/0)^-1"),
    ("act", "--module", '{"family":"fraction","alphas":["a","c"],"betas":["0","1/0"]}',
     "--b", "b", "--generator", "L[1]", "--vector", "t^0"),
    # a seed with no term in the window: nothing would be checked
    ("probe", "--module", '{"family":"laurent","alpha":"1/3"}', "--b", "1/3",
     "--seed", "t^9", "--window", "1,1,1"),
    ("probe", "--module", '{"family":"omega","lambda":"2"}', "--b", "1/3",
     "--seed", "D^7", "--window", "1,1,1"),
], ids=["algebra-window-0", "morphism-window-negative",
        "action-table-window-negative", "specialize-zero-denominator",
        "bare-G-generator", "spec-alpha-null", "spec-alpha-float",
        "spec-lambda-bool", "spec-n-list", "spec-n-not-integer", "spec-alphas-int",
        "spec-alphas-string", "spec-alphas-null-entry", "spec-extra-field",
        "spec-repeated-pole", "specialize-duplicate-name",
        "generator-zero-denominator", "vector-zero-denominator",
        "spec-pole-zero-denominator", "probe-seed-outside-window",
        "probe-seed-outside-window-omega"])
def test_bad_inputs_exit_two(capsys, request, args):
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    expected = EXACT_ERRORS.get(request.node.callspec.id)
    assert expected is None or err == expected


#: alpha has a pole at a = 28/31, where the seed-0 cross-check first draws
POLE_AT_DRAW = '{"family":"laurent","alpha":"1/(31*a - 28)"}'


def test_probe_redraws_a_cross_check_point_on_a_pole(capsys, monkeypatch):
    monkeypatch.setenv("SUPERMOD_SEED", "0")
    code, out, _ = run(capsys, "probe", "--module", POLE_AT_DRAW, "--b", "b",
                       "--seed", "t^0", "--window", "1,1,1")
    assert code == 0
    report = json.loads(out)
    assert report["crossCheckRank"] == report["rank"] == 6
    assert report["notes"] == ["cross-checked at a=25/31, b=29/31"]


def test_a_malformed_cross_check_seed_is_named(capsys, monkeypatch):
    monkeypatch.setenv("SUPERMOD_SEED", "x")
    code, out, err = run(capsys, "probe", "--module", '{"family":"laurent","alpha":"a"}',
                         "--b", "1/3", "--seed", "t^0", "--window", "1,1,1")
    assert (code, out) == (2, "")
    assert err == "error: SUPERMOD_SEED must be an integer, got 'x'\n"


def test_a_singular_specialization_names_its_point(capsys):
    code, out, err = run(capsys, "probe", "--module", POLE_AT_DRAW, "--b", "b",
                         "--seed", "t^0", "--window", "1,1,1",
                         "--specialize", "a=28/31")
    assert (code, out) == (2, "")
    assert err == "error: denominator of 1/(31*a - 28) vanishes under a=28/31\n"


def test_rejected_names_are_named(capsys):
    _, _, err = run(capsys, "probe", "--module", LAURENT, "--b", "b", "--seed",
                    "t^0", "--window", "2,3,4", "--specialize", "a=1/3,b=1,a=2/5")
    assert err == "error: --specialize names a more than once\n"
    _, _, err = run(capsys, "act", "--module", '{"family":"omega","lambda":"2","n":2}',
                    "--b", "b", "--generator", "L[1]", "--vector", "D^0")
    assert err == "error: module spec fields unknown to the omega family: ['n']\n"


def test_parser_reuse_matches_a_fresh_parser(capsys):
    # the parser is built once per process; reusing it must not change any
    # exit code or output, including after an argparse error or --help
    sequence = [
        ("probe", "--module", LAURENT, "--b", "b"),
        ("verify-algebra", "--help"),
        ("act", "--module", '{"family":"nope"}', "--b", "b",
         "--generator", "L[1]", "--vector", "t^0"),
        ("probe", "--module", OMEGA, "--b", "1/3", "--seed", "D^1~",
         "--window", "2,2,2"),
        ("verify-algebra", "--window", "x"),
        ("probe", "--module", OMEGA, "--b", "1/2", "--seed", "D^0",
         "--window", "2,4,4"),
    ]

    def outcomes(fresh: bool):
        out = []
        for args in sequence:
            if fresh:
                build_parser.cache_clear()
            out.append(run(capsys, *args))
        return out

    reused = outcomes(fresh=False)
    assert [code for code, _, _ in reused] == [2, 0, 2, 0, 2, 1]
    assert reused == outcomes(fresh=True)
    assert build_parser() is build_parser()


@pytest.mark.parametrize("flag,value,args", [
    ("--b", "-1/4", ("probe", "--module", LAURENT, "--seed", "t^0",
                     "--window", "1,1,1")),
    ("--b", "-b", ("act", "--module", LAURENT, "--generator", "L[1]",
                   "--vector", "t^0")),
    ("--vector", "-t^0", ("act", "--module", LAURENT, "--b", "b",
                          "--generator", "L[1]")),
    ("--vector", "-2*t^0", ("act", "--module", LAURENT, "--b", "b",
                            "--generator", "L[1]")),
    ("--alpha", "-1/3", ("check-iso", "--witness", "phi", "--window", "1,1")),
], ids=["probe-b-fraction", "act-b-name", "act-vector-token",
        "act-vector-term", "check-iso-alpha"])
def test_a_value_flag_takes_a_next_word_starting_with_minus(capsys, flag, value, args):
    spaced = run(capsys, *args, flag, value)
    assert spaced == run(capsys, *args, f"{flag}={value}")
    assert spaced[0] == 0 and spaced[1]


def test_minus_words_leave_options_and_help_alone(capsys):
    code, out, _ = run(capsys, "probe", "-h")
    assert code == 0 and out.startswith("usage: supermod probe")
    code, out, err = run(capsys, "probe", "--module", LAURENT, "--b", "--sector",
                         "0", "--seed", "t^0", "--window", "1,1,1")
    assert (code, out) == (2, "") and "--b: expected one argument" in err


def test_unwritable_output_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify-algebra", "--window", "1",
                         "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(target) in err
    assert not target.exists()


# ----------------------------------------------------------------------
# sympy stays unloaded until a polynomial gcd is needed

_SYMPY_PROBE = """
import contextlib, io, sys
from supermod.cli import main

def run(*args):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(args))

codes = [
    run("probe", "--module", OMEGA, "--b", "1/3", "--seed", "D^1~", "--window", "1,2,2"),
    run("verify-algebra", "--sector", "0", "--window", "1"),
    run("check-iso", "--witness", "phi", "--window", "1,2"),
    run("check-iso", "--witness", "psi", "--window", "1,2"),
    run("check-submodule", "--module", '{"family":"laurent","alpha":"0"}',
        "--b", "1/2", "--window", "1,1", "--vector", "t^-1", "--vector", "t^-1~",
        "--vector", "t^0", "--vector", "t^1", "--vector", "t^1~"),
]
print(codes, "sympy" in sys.modules)
codes.append(run("act", "--module", LAURENT, "--b", "b", "--generator", "L[1]",
                 "--vector", "t^0"))
for spec in ('{"family":"laurent","alpha":"1/(a+1)"}', '{"family":"omega","lambda":"l+1"}'):
    codes.append(run("check-module", "--module", spec, "--b", "b", "--window", "1,1"))
codes.append(run("act", "--module", '{"family":"omega","lambda":"l"}', "--b", "b",
                 "--generator", "L[-1]", "--vector", "D^1"))
print(codes, "sympy" in sys.modules)
codes.append(run("act", "--module", '{"family":"omega","lambda":"l+1"}', "--b", "b",
                 "--generator", "L[-1]", "--vector", "D^1"))
print(codes, "sympy" in sys.modules)
"""


def test_parameter_free_commands_do_not_import_sympy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = f"OMEGA, LAURENT = {OMEGA!r}, {LAURENT!r}\n" + _SYMPY_PROBE
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rational, polynomial, fraction = done.stdout.splitlines()
    # every call passes; a symbolic act over polynomials, a symbolic
    # check-module, non-monomial denominators included, and a fraction
    # with a monomial side, (b - 1)/l, stay in the int kernel, and sympy
    # arrives with the first gcd of two non-monomial polynomials, here
    # (b - 1)/(l + 1)
    assert rational == "[0, 0, 0, 0, 0] False"
    assert polynomial == "[0, 0, 0, 0, 0, 0, 0, 0, 0] False"
    assert fraction == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0] True"
