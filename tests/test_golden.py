"""Report bytes of recorded CLI calls: exit code and SHA-256 of stdout.

The corpus is the benchmark's ``perfbench/expected.json`` (read, never
written here), restricted to the subcommands that run in a few seconds in
total; ``probe`` and ``check-module`` calls are covered by the benchmark
itself.  A refactor that changes one byte of any report fails here.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from supermod.cli import main

_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
_SLOW = ("probe", "check-module")


def _cases():
    recorded = json.loads(_EXPECTED.read_text(encoding="utf-8"))
    for key, expected in recorded.items():
        env, _, *argv = shlex.split(key)
        if argv[0] not in _SLOW:
            yield pytest.param(env.partition("=")[2], argv, expected, id=key)


@pytest.mark.parametrize("seed, argv, expected", _cases())
def test_recorded_report_bytes(seed, argv, expected, capsys, monkeypatch):
    monkeypatch.setenv("SUPERMOD_SEED", seed)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected["sha256"]
