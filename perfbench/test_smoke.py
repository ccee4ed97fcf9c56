"""Smoke test of the benchmark: tiny windows, one pass per workload.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from layertrace import PER_LAYER_METRICS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        PER_LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.TIMED)


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["metrics"]
    assert list(layer_map) == [name for name, _, _ in PER_LAYER_METRICS]
    end_to_end = {name for name, _ in bench.END_TO_END}
    for entry in layer_map.values():
        for metric, workload in entry["moves"]:
            assert metric in end_to_end and workload in workloads.WORKLOADS
        assert set(entry["holds"]) <= set(workloads.WORKLOADS)
        assert not {w for _, w in entry["moves"]} & set(entry["holds"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    result = _result(_run("--smoke", "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True  # fail_ratio 0


def test_seed_fixes_the_items():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7)
        assert first == workloads.build(name, 7)
        assert len(first) == len(workloads.build(name, 8))
        assert {item.key for item in first} <= {item.key for item in workloads.pool(name)}


def test_reports_are_identical_with_tracing_on_and_off():
    cli = harness.import_cli()
    items = [item for name in workloads.WORKLOADS
             for item in workloads.build(name, 0, smoke=True)]
    plain = [harness.run_item(cli, item) for item in items]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for item in items:
            tracer.begin_item()
            traced.append(harness.run_item(cli, item))
    finally:
        tracer.uninstall()
    assert [(o.exit, o.sha256) for o in traced] == [(o.exit, o.sha256) for o in plain]
    # the layers' self times account for every traced second inside cli.main
    assert sum(tracer.layer_self().values()) == pytest.approx(tracer.root_s, rel=1e-6)
    assert tracer.root_s <= sum(o.seconds for o in traced)
    assert tracer.calls["cli.main"] == len(items)
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_contract_items_fail_only_as_recorded():
    result = _run("--workload", "contract", "--smoke", "--seconds", "1")
    data = _result(result)
    failed = [line.split(": ", 1)[1].split(" -> ")[0]
              for line in result.stdout.splitlines() if line.startswith("# FAILED:")]
    assert set(failed) <= set(workloads.CONTRACT_VIOLATIONS)
    assert data["failed"] == len(failed)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "catalog", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
