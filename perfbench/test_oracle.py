"""The benchmark's output checker accepts what the CLI writes and rejects
corrupted inputs.  Run with ``python -m pytest perfbench``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

HORIZON = 2000


def rankpair(*argv) -> int:
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    return subprocess.run([sys.executable, "-m", "rankpair.cli", *map(str, argv)],
                          env=env, capture_output=True).returncode


@pytest.fixture(scope="module")
def plan_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("plan")
    f = out / "f.json"
    f.write_text(json.dumps({"stage": 1, "coefficients": {"0": "1/1"}}))
    assert rankpair("--out-dir", out, "schedule", "--growth", workloads.GROWTH,
                    "--horizon", HORIZON) == 0
    assert rankpair("--out-dir", out, "plan", "--schedule", out / "schedule.json",
                    "--poly", workloads.POLY, "--generic-cuts", workloads.GENERIC_CUTS) == 0
    assert rankpair("--out-dir", out, "correlate", "--spec", out / "spec_s.json",
                    "--function", f, "--n-max", HORIZON) == 0
    return out


def test_checker_accepts_the_planned_pair(plan_dir):
    assert oracle.check_plan(plan_dir, HORIZON) == []
    assert oracle.check_indicator_table(plan_dir / "correlations.tsv",
                                        plan_dir / "spec_s.json", HORIZON) == []


def test_checker_rejects_a_lowered_blocking_spacer(plan_dir, tmp_path):
    spec = json.loads((plan_dir / "spec_s.json").read_text())
    blocking = spec["stages"][0]["spacers"]  # kills lags [1, 16]
    blocking[0] -= 1
    bad = tmp_path / "spec_s.json"
    bad.write_text(json.dumps(spec))
    cert = json.loads((plan_dir / "cert_s.json").read_text())
    problems = oracle.check_certificate(oracle.Spec.load(bad), cert, HORIZON)
    assert any("zero claim [1, 16] fails at n=16" in p for p in problems)
    # the program's own verifier rejects it too; it stops at the polynomial
    # claim, whose time is no longer a stage height, and exits 1, not 2
    assert rankpair("--out-dir", tmp_path, "verify", "--spec", bad,
                    "--cert", plan_dir / "cert_s.json") != 0


def test_checker_rejects_a_changed_table_entry(plan_dir, tmp_path):
    rows = (plan_dir / "correlations.tsv").read_text().splitlines()
    rows[3 + 20] = "20\t7/3\t7/3"  # correlations of an indicator stay below 1
    bad = tmp_path / "correlations.tsv"
    bad.write_text("\n".join(rows) + "\n")
    problems = oracle.check_indicator_table(bad, plan_dir / "spec_s.json", HORIZON)
    assert problems and "n=20" in problems[0]
