"""Fuzzing the command line against the exit-code contract.

Argument vectors come from a small grammar: every subcommand, valid and
malformed module specs, b texts, generator and vector texts, and windows
with bounds in -1..2 (generator bounds at most 1 where the check is
expensive).  Whatever the input, the CLI exits 0, 1 or 2, never lets an
exception escape, and a report that says it passed has checked something
and, where it counts violations, has none; a passing submodule report
spans at least one vector of the window, and every probe report spans
at least one.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from supermod.cli import main

#: valid specs, each with vectors of its family
FAMILIES = [
    ('{"family":"laurent","alpha":"a"}', ["t^0", "2*t^1 + t^0~", "t^-1~", "-t^0"]),
    ('{"family":"laurent","alpha":0}', ["t^0", "t^1~ - t^0"]),
    ('{"family":"omega","lambda":"2"}', ["D^0", "D^1 - 3*D^0~"]),
    ('{"family":"fraction","alphas":["1/3","1/3"],"betas":["0","1"]}',
     ["t^0", "t^-1~ + (t-1)^-1"]),
    ('{"family":"degree","n":2}', ["t^0*d^0", "t^-1*d^1~"]),
]
MALFORMED_SPECS = [
    '{"family":"laurent","alpha":null}',
    '{"family":"laurent","alpha":1.5}',
    '{"family":"degree","n":[2]}',
    '{"family":"fraction","alphas":5,"betas":["0"]}',
    '{"family":"fraction","alphas":"ab","betas":["0","1"]}',
    '{"family":"omega"}',
    '{"family":"poly"}',
    '{"family":"laurent","alpha":"a","lambda":"2"}',
    "[1, 2]",
    "not json",
    '{"family":"fraction","alphas":["1/3","1/3"],"betas":["0","1/0"]}',
]
BAD_VECTORS = ["t^", "", "t^0 - t^0", "D^-1", "t^0*d^5", "(t-1/0)^-1"]
B_TEXTS = ["b", "0", "1/3", "1/2", "-1", "-1/4", "-b"]
BAD_B_TEXTS = ["1/0", "b b", ""]
GENERATORS = ["L[1]", "H[-1]", "G+[1/2]", "G-[0]", "G+[-1]", "C"]
BAD_GENERATORS = ["G[1]", "H[1/2]", "Q[0]", "", "L[1/0]"]


def _mostly(valid, bad) -> st.SearchStrategy:
    """Valid choices three times as often as malformed ones."""
    return st.sampled_from(list(valid) * 3 + list(bad))


BOUNDS = _mostly([1, 2], [-1, 0])
SMALL_BOUNDS = _mostly([1], [-1, 0])


def _window(*bounds) -> st.SearchStrategy[str]:
    return st.tuples(*bounds).map(lambda b: ",".join(map(str, b)))


b_texts = _mostly(B_TEXTS, BAD_B_TEXTS)
sectors = _mostly(["0", "1/2"], ["1"])


@st.composite
def module_args(draw):
    """Module flags, and a vector that is usually in the module's family."""
    spec, vectors = draw(_mostly(FAMILIES, [(s, []) for s in MALFORMED_SPECS]))
    twist = draw(st.sampled_from([[], [], ["--pi"], ["--sigma"],
                                  ["--sigma", "--pi"], ["--quotient"]]))
    flags = ["--module", spec, "--b", draw(b_texts), "--sector", draw(sectors),
             *twist]
    return flags, draw(_mostly(vectors, BAD_VECTORS))


argvs = st.one_of(
    st.builds(lambda s, w: ["verify-algebra", "--sector", s, "--window", str(w)],
              sectors, BOUNDS),
    st.builds(lambda m, w, b: ["verify-morphism", "--map", m, "--window", str(w),
                               "--b", b],
              _mostly(["delta", "delta-roundtrip", "varpi", "sigma-b", "sigma-aut"],
                      ["phi"]), BOUNDS, b_texts),
    st.builds(lambda a, g: ["act", *a[0], "--generator", g, "--vector", a[1]],
              module_args(), _mostly(GENERATORS, BAD_GENERATORS)),
    st.builds(lambda a, w: ["action-table", *a[0], "--window", str(w)],
              module_args(), BOUNDS),
    st.builds(lambda a, w: ["check-module", *a[0], "--window", w],
              module_args(), _window(SMALL_BOUNDS, BOUNDS)),
    st.builds(lambda a, w: ["probe", *a[0], "--seed", a[1], "--window", w],
              module_args(), _window(SMALL_BOUNDS, BOUNDS, BOUNDS)),
    st.builds(lambda a, which, n, d: ["check-lemma", *a[0], "--which", which,
                                      "--vector", a[1], "--k", str(n),
                                      "--m", str(n), "--d", str(d)],
              module_args(), st.sampled_from(["T", "Q"]), BOUNDS, BOUNDS),
    st.builds(lambda a, w: ["check-submodule", *a[0], "--vector", a[1],
                            "--window", w],
              module_args(), _window(BOUNDS, BOUNDS)),
    st.builds(lambda wit, w, a: ["check-iso", "--witness", wit, "--window", w,
                                 "--alpha", a],
              st.sampled_from(["phi", "psi", "identity"]), _window(BOUNDS, BOUNDS),
              b_texts),
    st.lists(st.sampled_from(["probe", "--window", "1,1", "--b", "x", "bogus"]),
             max_size=4),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argvs)
# every vector outside the window: a pass here would span nothing, so the
# subspaceRank assertion below has a case that reaches it if the exit-2
# rejection goes
@example(["check-submodule", "--module", '{"family":"laurent","alpha":"1/3"}',
          "--b", "1/3", "--vector", "t^5", "--window", "1,1"])
# a seed outside the window: the rank assertion below has a case that
# reaches it if the exit-2 rejection goes
@example(["probe", "--module", '{"family":"laurent","alpha":"1/3"}',
          "--b", "1/3", "--seed", "t^9", "--window", "1,1,1"])
def test_cli_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code != 2 and out.getvalue().startswith("{"):
        report = json.loads(out.getvalue())
        if report.get("passed") is True:
            assert report["checked"] >= 1, argv
        if "violationCount" in report:
            assert report["passed"] == (report["violationCount"] == 0), argv
        if report.get("kind") == "submodule" and report["passed"]:
            assert report["details"]["subspaceRank"] >= 1, argv
        if report.get("kind") == "span-probe":
            assert report["rank"] >= 1, argv
