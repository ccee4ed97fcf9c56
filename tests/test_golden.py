"""Report bytes of recorded CLI calls: exit code and SHA-256 of stdout.

The corpus is the benchmark's ``perfbench/expected.json`` (read, never
written here).  It covers every recorded item except the slow subcommands
``probe`` and ``check-module``, of which it keeps a sample that runs in
about ten seconds: the symbolic module axioms at window ``1,1`` with one
parameter naming per family, and the probes from every token of window
``2,2,2`` at one generic point per family.  A refactor that changes one
byte of any of these reports fails here.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from supermod.cli import main

_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
#: (window, module-spec fragments, one per family) kept of each slow subcommand
_SAMPLED = {
    "check-module": ("1,1", ('"alpha":"a"', '"lambda":"l"',
                             '"alphas":["a0","a1"]', '"family":"degree"')),
    "probe": ("2,2,2", ('"alpha":"1/3"', '"lambda":"2"',
                        '"family":"fraction"', '"family":"degree"')),
}


def _kept(argv) -> bool:
    if argv[0] not in _SAMPLED:
        return True
    window, modules = _SAMPLED[argv[0]]
    flag = lambda name: argv[argv.index(name) + 1]
    return (flag("--window") == window
            and (argv[0] == "probe" or flag("--b") == "b")
            and any(m in flag("--module") for m in modules))


def _cases():
    recorded = json.loads(_EXPECTED.read_text(encoding="utf-8"))
    for key, expected in recorded.items():
        env, _, *argv = shlex.split(key)
        if _kept(argv):
            yield pytest.param(env.partition("=")[2], argv, expected, id=key)


@pytest.mark.parametrize("seed, argv, expected", _cases())
def test_recorded_report_bytes(seed, argv, expected, capsys, monkeypatch):
    monkeypatch.setenv("SUPERMOD_SEED", seed)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected["sha256"]
