"""Self-test of the benchmark at the smallest sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that each workload prints every metric of BENCHMARK.json with its
unit, that a corrupted or raising job counts as a failure rather than a
pass, and that a directory without trilam's sources makes the run fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from trilam import builder, cli, pullback  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workdir: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=workdir,
                          capture_output=True, text=True, timeout=170)


def test_spec_lists_every_workload():
    assert WORKLOADS == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert sorted(p for parts in workloads.WORKLOADS.values() for p in parts) == \
        sorted(workloads.PARTS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "7", "--seconds", "0.2",
                  "--trace", trace, "--size", "small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    printed = {tuple(line.split()[::2][:2]) for line in lines[:-1] if line.startswith("  ")}
    for metric, unit in want.items():
        assert (metric, unit) in printed, f"{metric} [{unit}] not printed"
        assert isinstance(result["metrics"][metric]["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in want)


def test_passes_scaled_to_reference_speed():
    nominal = run.REF_NOMINAL_S
    # a pass run while the reference task took twice its nominal time
    # counts as half as long, whatever the pass's own time
    assert run.at_reference_speed([4.0], [100.0], [2 * nominal]) == (2.0, 200.0)
    assert run.at_reference_speed([1.0, 3.0, 2.0], [3.0, 1.0, 2.0], [nominal] * 3) == (2.0, 2.0)
    assert run.reference_s() > 0


def _small(part: str, tmp_path: Path):
    expected = json.loads((BENCH_DIR / "expected.json").read_text())["small"]
    return workloads.Workload((part,), 3, "small", expected, tmp_path)


def _corrupt_text(text: str) -> str:
    return text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1]


def _corruptions(monkeypatch, name: str) -> None:
    """Make every job of the part return a subtly wrong output."""
    if name == "comajors":
        real = workloads.formats.records_to_csv
        monkeypatch.setattr(workloads.formats, "records_to_csv",
                            lambda recs: _corrupt_text(real(recs)))
    elif name == "certify":
        real = builder.nesting_audit

        def audit(state):
            rep = real(state)
            rep.cross_type.pop()
            return rep
        monkeypatch.setattr(builder, "nesting_audit", audit)
    elif name == "prune":
        real = pullback.hyperbolic_prune

        def prune(c, depth):
            pre = real(c, depth)
            pre.pairs = pre.pairs[pre.pairs[:, 0] != pre.pairs[0, 0]]
            return pre
        monkeypatch.setattr(pullback, "hyperbolic_prune", prune)
    else:
        real = cli.render_svg
        monkeypatch.setattr(cli, "render_svg", lambda *a, **k: _corrupt_text(real(*a, **k)))


@pytest.mark.parametrize("name", list(workloads.PARTS))
def test_corrupted_output_is_a_failure(name, tmp_path, monkeypatch):
    wl = _small(name, tmp_path)
    tally = run.Tally()
    run.run_pass(wl, tally)
    assert (tally.attempted, tally.failed) == (len(wl.jobs), 0)

    _corruptions(monkeypatch, name)
    tally = run.Tally()
    run.run_pass(wl, tally)
    assert (tally.attempted, tally.failed) == (len(wl.jobs), len(wl.jobs))


@pytest.mark.parametrize("name", list(workloads.PARTS))
def test_raising_job_is_a_failure(name, tmp_path, monkeypatch):
    wl = _small(name, tmp_path)

    def boom(job):
        raise RuntimeError("injected")
    monkeypatch.setattr(wl, "run", boom)
    tally = run.Tally()
    wall, items = run.run_pass(wl, tally)
    assert (tally.attempted, tally.failed, items) == (len(wl.jobs), len(wl.jobs), 0)


def test_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "leaves", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
