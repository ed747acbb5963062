import ast
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rankpair import LevelFunction, WalshPolynomial, correlation_sequence
from rankpair import serialize as ser
from rankpair import cli
from rankpair.cli import main


@pytest.fixture
def plan_dir(tmp_path):
    assert main(["--out-dir", str(tmp_path), "plan", "--growth", "8",
                 "--horizon", "500"]) == 0
    return tmp_path


def write_indicator(tmp_path) -> str:
    path = tmp_path / "f.json"
    ser.write_json(path, ser.level_function_to_dict(LevelFunction.indicator(1)))
    return str(path)


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["plan", "--no-such-flag"]) == 1
        assert main(["correlate", "--spec", "missing.json",
                     "--function", "missing.json", "--n-max", "5"]) == 1

    def test_verify_round_trip_is_zero(self, plan_dir):
        assert main(["--out-dir", str(plan_dir), "verify",
                     "--spec", str(plan_dir / "spec_s.json"),
                     "--cert", str(plan_dir / "cert_s.json")]) == 0

    def test_tampered_certificate_is_two(self, plan_dir, capsys):
        cert = ser.read_json(plan_dir / "cert_s.json")
        rigid = cert["rigidity_times"][0]["time"]
        cert["zero_intervals"][0]["interval"] = [1, rigid]
        cert["zero_intervals"][0]["checked"] = [1, rigid]
        ser.write_json(plan_dir / "tampered.json", cert)
        code = main(["--out-dir", str(plan_dir), "verify",
                     "--spec", str(plan_dir / "spec_s.json"),
                     "--cert", str(plan_dir / "tampered.json")])
        assert code == 2
        spec = ser.spec_from_dict(ser.read_json(plan_dir / "spec_s.json"))
        first = correlation_sequence(
            spec, LevelFunction.indicator(1), range(1, rigid + 1)).support()[0]
        assert capsys.readouterr().err.splitlines() == [
            f"verify FAILED: S zero claim on [1, {rigid}] does not recompute: "
            f"verdict exact-zero -> violated, first_violation None -> {first}"
        ]

    def test_unsupported_polynomial_claim_is_two(self, tmp_path, capsys):
        # a lowered blocking spacer breaks the zero claim on [1, 16] at n=16
        # and moves every later stage height off the polynomial claim's time
        out = str(tmp_path)
        assert main(["--out-dir", out, "plan", "--horizon", "2000", "--poly",
                     '{"coefficients": {"0": "1/2", "1": "1/4"}}',
                     "--generic-cuts", "4"]) == 0
        spec = ser.read_json(tmp_path / "spec_s.json")
        spec["stages"][0]["spacers"][0] -= 1
        ser.write_json(tmp_path / "spec_s.json", spec)
        capsys.readouterr()
        for argv, command in ((["verify", "--spec", str(tmp_path / "spec_s.json"),
                                "--cert", str(tmp_path / "cert_s.json")], "verify"),
                              (["report", "--plan-dir", out], "report")):
            assert main(["--out-dir", out, *argv]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"{command} FAILED: S zero claim on [1, 16] does not recompute: "
                "verdict exact-zero -> violated, first_violation None -> 16"
            ]
        recomputed = ser.read_json(tmp_path / "verify_report.json")["recomputed"]
        assert not recomputed["polynomial_claims"][0]["satisfied"]


GOLDEN_SPEC = str(Path(__file__).parent / "golden" / "default" / "spec_s.json")
GOLDEN_TABLE = str(Path(GOLDEN_SPEC).with_name("correlations.tsv"))
POISSON = ["simulate", "--kind", "poisson", "--spec", GOLDEN_SPEC, "--function", "f.json"]
MALFORMED = {  # files whose fields have the wrong JSON type
    "spacers-str.json": {"base_height": 1, "stages": [{"cuts": 2, "spacers": ["1", "0"]}]},
    "base-height-str.json": {"base_height": "1", "stages": [{"cuts": 2, "spacers": [1, 0]}]},
    "cuts-float.json": {"base_height": 1, "stages": [{"cuts": 2.0, "spacers": [1, 0]}]},
    "top-level-array.json": [1, 2],
    "indices-int.json": {"terms": [{"indices": 3, "coefficient": "1/2"}]},
    "float-coefficient.json": {"stage": 1, "coefficients": {"0": 0.1}},
}
STAGE_9 = {"stage": 9, "coefficients": {"0": "1/1"}}
MISFIT = {  # well-typed files whose level function does not fit its use on the golden spec
    "stage-0.json": {"stage": 0, "coefficients": {"0": "1/1"}},
    "stage-9.json": STAGE_9,
    "level-past-top.json": {"stage": 1, "coefficients": {"5": "1/1"}},  # stage-1 height is 1
    "stage-3.json": {"stage": 3, "coefficients": {"0": "1/1"}},
    "tracked-stage-9.json": {**ser.read_json(Path(GOLDEN_SPEC).with_name("cert_s.json")),
                             "tracked": STAGE_9},
}


OVERSIZED = {  # a spec whose depth-4 tower puts 10^9 occurrences of the stage-1 level
    "wide-tower.json": {"stages": [{"cuts": 1000, "spacers": [0] * 1000}] * 3},
}


EMPTY_TABLE = "# subject\tf\n# norm_sq\t1/1\nn\tlower\tupper\n"


def correlate(spec, function="f.json"):
    return ["correlate", "--spec", spec, "--function", function, "--n-max", "5"]


@pytest.mark.parametrize("argv", [
    ["correlate", "--spec", GOLDEN_SPEC, "--function", "f.json", "--n-max", "100000"],
    ["simulate", "--kind", "gaussian"],
    ["simulate", "--kind", "poisson"],
    POISSON + ["--intensity", "0"],
    POISSON + ["--steps", "100000"],
    ["plan", "--generic-cuts", "1"],
    ["plan", "--horizon", "1000", "--poly", '{"coefficients": {"-1": "1/2"}}'],
    correlate("spacers-str.json"),
    correlate("base-height-str.json"),
    correlate("cuts-float.json"),
    correlate("top-level-array.json"),
    ["lemma3", "--function", "indices-int.json", "--delta", "1/10"],
    correlate(GOLDEN_SPEC, "float-coefficient.json"),
    correlate(GOLDEN_SPEC, "stage-0.json"),
    correlate(GOLDEN_SPEC, "stage-9.json"),
    correlate(GOLDEN_SPEC, "level-past-top.json"),
    POISSON + ["--depth", "99"],
    POISSON[:-1] + ["stage-3.json", "--depth", "2"],
    POISSON[:-1] + ["stage-9.json"],
    ["verify", "--spec", GOLDEN_SPEC, "--cert", "tracked-stage-9.json"],
    POISSON + ["--intensity", "1e12", "--samples", "10"],
    ["simulate", "--kind", "poisson", "--spec", "wide-tower.json", "--function", "f.json",
     "--depth", "4"],
    ["simulate", "--kind", "gaussian", "--table", GOLDEN_TABLE, "--lag-max", "5000"],
    ["schedule", "--growth", "1/0", "--horizon", "10"],
    ["plan", "--growth", "1/0"],
    ["lemma3", "--function", "w.json", "--delta", "1/0"],
    ["simulate", "--kind", "gaussian", "--table", GOLDEN_TABLE, "--lag-max", "-1"],
    ["spectrum", "--table", GOLDEN_TABLE, "--exact", "--grid", "0"],
    ["spectrum", "--table", "empty.tsv", "--exact"],
], ids=["tolerance", "gaussian-no-table", "poisson-no-spec", "intensity-0",
        "escape-cap", "generic-cuts-1", "negative-power",
        "spacers-str", "base-height-str", "cuts-float", "top-level-array", "indices-int",
        "float-coefficient", "function-stage-0", "function-stage-9", "level-past-top",
        "poisson-depth-99", "function-deeper-than-depth", "poisson-function-stage-9",
        "tracked-stage-9", "poisson-point-cap", "poisson-cell-cap", "gaussian-matrix-cap",
        "schedule-zero-denominator", "plan-zero-denominator", "lemma3-zero-denominator",
        "gaussian-lag-max-minus-1", "spectrum-grid-0", "spectrum-empty-table"])
def test_failure_is_one_line_and_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_indicator(tmp_path)
    for name, content in {**MALFORMED, **MISFIT, **OVERSIZED}.items():
        (tmp_path / name).write_text(json.dumps(content))
    ser.write_json(tmp_path / "w.json", WalshPolynomial.from_terms([([1], 1)]))
    (tmp_path / "empty.tsv").write_text(EMPTY_TABLE)
    assert main(["--out-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("*_manifest.json"))


def test_wrong_typed_plan_summary_is_one_line(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["--out-dir", out, "plan", "--horizon", "300"]) == 0
    plan = ser.read_json(tmp_path / "plan.json")
    plan["horizon"] = "300"
    ser.write_json(tmp_path / "plan.json", plan)
    capsys.readouterr()
    assert main(["--out-dir", out, "report", "--plan-dir", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'input error: {tmp_path / "plan.json"}: horizon: expected an integer, got "300"'
    ]


@pytest.mark.parametrize("row, problem", [
    ("0\t1/1", "expected 3 tab-separated fields, got 2"),
    ("0\t1/1\thalf", "'half' is not a rational"),
    ("0\t1/0\t1/1", "'1/0' is not a rational"),
])
def test_malformed_table_row_names_file_and_line(tmp_path, capsys, row, problem):
    table = tmp_path / "table.tsv"
    table.write_text(f"# subject\tf\n# norm_sq\t1/1\nn\tlower\tupper\n{row}\n1\t0/1\t0/1\n")
    assert main(["--out-dir", str(tmp_path), "spectrum", "--table", str(table)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"input error: {table}: line 4: {problem}"]


def test_empty_table_names_the_file(tmp_path, capsys):
    table = tmp_path / "empty.tsv"
    table.write_text(EMPTY_TABLE)
    assert main(["--out-dir", str(tmp_path), "spectrum", "--table", str(table), "--exact"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"input error: {table}: the table is empty"]


def test_certification_commands_start_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, rankpair.cli; sys.exit('numpy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                   check=True)


def test_exported_names_have_a_user():
    """Every name ``rankpair`` exports resolves, is no submodule, and is
    imported by ``rankpair.cli`` (or bound there from ``_NUMERIC``), imported
    by the acceptance tests, or an error class that ``main`` maps to exit 1."""
    import rankpair

    cli_tree = ast.parse(Path(cli.__file__).read_text())
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    used = {alias.name for tree in (cli_tree, acceptance) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    used.update(cli._NUMERIC)
    main_def = next(node for node in cli_tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    exit_one = ()
    for handler in ast.walk(main_def):
        if isinstance(handler, ast.ExceptHandler) and any(
                isinstance(n, ast.Return) and ast.unparse(n.value) == "EXIT_USAGE"
                for n in handler.body):
            caught = eval(ast.unparse(handler.type), vars(cli))
            exit_one += caught if isinstance(caught, tuple) else (caught,)
    assert exit_one
    for name in rankpair.__all__:
        value = getattr(rankpair, name)
        assert not isinstance(value, type(rankpair)), name
        assert name in used or (isinstance(value, type) and issubclass(value, exit_one)), name


def test_commands_run_the_module_binding(tmp_path, monkeypatch):
    """A wrapper set as an attribute of ``rankpair.cli``, as the benchmark's
    traced pass sets one, is the function the commands call."""
    calls = []
    for name in ("fejer_density", "gaussian_sample"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    out = str(tmp_path)
    assert main(["--out-dir", out, "spectrum", "--table", GOLDEN_TABLE,
                 "--order", "8", "--grid", "64"]) == 0
    assert main(["--out-dir", out, "simulate", "--kind", "gaussian", "--table", GOLDEN_TABLE,
                 "--lag-max", "5", "--samples", "100"]) == 0
    assert calls == ["fejer_density", "gaussian_sample"]


class TestCorrelate:
    def test_lag_zero_row_is_norm_sq(self, plan_dir):
        f = write_indicator(plan_dir)
        assert main(["--out-dir", str(plan_dir), "correlate",
                     "--spec", str(plan_dir / "spec_s.json"),
                     "--function", f, "--n-max", "10"]) == 0
        table = ser.correlation_table_from_tsv(
            (plan_dir / "correlations.tsv").read_text()
        )
        assert table.entries[0] == (Fraction(1), Fraction(1))


EVERY_COMMAND = {  # arguments of one passing run, with {plan} the plan_dir fixture
    "schedule": ["--horizon", "100"],
    "plan": ["--horizon", "100"],
    "verify": ["--spec", "{plan}/spec_s.json", "--cert", "{plan}/cert_s.json"],
    "correlate": ["--spec", "{plan}/spec_s.json", "--function", "{plan}/f.json", "--n-max", "10"],
    "spectrum": ["--table", GOLDEN_TABLE, "--order", "8", "--grid", "64"],
    "simulate": ["--kind", "gaussian", "--table", GOLDEN_TABLE, "--lag-max", "5",
                 "--samples", "100"],
    "lemma3": ["--function", "{plan}/w.json", "--delta", "1/10"],
    "report": ["--plan-dir", "{plan}"],
}


class TestPipeline:
    def test_schedule_then_plan_then_report(self, tmp_path):
        out = str(tmp_path)
        assert main(["--out-dir", out, "schedule", "--growth", "8",
                     "--horizon", "400"]) == 0
        assert main(["--out-dir", out, "plan",
                     "--schedule", str(tmp_path / "schedule.json")]) == 0
        assert main(["--out-dir", out, "report", "--plan-dir", out]) == 0
        report = ser.read_json(tmp_path / "report.json")
        assert report["ok"]

    def test_report_recomputes_from_specs(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["--out-dir", out, "plan", "--horizon", "1000"]) == 0
        spec = ser.read_json(tmp_path / "spec_s.json")
        first = spec["stages"][0]
        first["spacers"] = [0] * first["cuts"]  # the claim on [1, 16] now fails at n=1
        ser.write_json(tmp_path / "spec_s.json", spec)
        capsys.readouterr()
        assert main(["--out-dir", out, "report", "--plan-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "report FAILED: S zero claim on [1, 16] does not recompute: "
            "verdict exact-zero -> violated, first_violation None -> 1"
        ]
        assert not ser.read_json(tmp_path / "report.json")["ok"]
        manifest = ser.read_json(tmp_path / "report_manifest.json")
        assert manifest["outputs"] == [str(tmp_path / "report.json")]

    def test_spectrum_and_simulate(self, plan_dir):
        f = write_indicator(plan_dir)
        out = str(plan_dir)
        assert main(["--out-dir", out, "correlate",
                     "--spec", str(plan_dir / "spec_s.json"),
                     "--function", f, "--n-max", "40"]) == 0
        assert main(["--out-dir", out, "spectrum",
                     "--table", str(plan_dir / "correlations.tsv"),
                     "--exact", "--grid", "128"]) == 0
        assert main(["--out-dir", out, "simulate", "--kind", "poisson",
                     "--spec", str(plan_dir / "spec_s.json"),
                     "--function", f, "--depth", "3", "--steps", "0",
                     "--samples", "2000", "--intensity", "2"]) == 0
        payload = ser.read_json(plan_dir / "simulation.json")
        assert payload["ci_contains_exact"]
        stats = ser.read_json(plan_dir / "simulate_manifest.json")["stats"]
        assert stats["configurations"] == 2000 and stats["escape_basis"] == "whole tower"
        assert Fraction(stats["region_measure"]) / stats["region_cells"] == Fraction(1, 8)
        assert Fraction(stats["tower_measure"]) > Fraction(stats["region_measure"])
        assert main(["--out-dir", out, "simulate", "--kind", "gaussian",
                     "--table", str(plan_dir / "correlations.tsv"),
                     "--lag-max", "5", "--samples", "200"]) == 0
        stats = ser.read_json(plan_dir / "simulate_manifest.json")["stats"]
        assert stats == {"length": 11, "repaired": False}

    def test_lemma3(self, tmp_path):
        w = tmp_path / "w.json"
        ser.write_json(w, ser.walsh_to_dict(WalshPolynomial.from_terms(
            [((i,), Fraction(1, 2)) for i in range(4)]
        )))
        assert main(["--out-dir", str(tmp_path), "lemma3",
                     "--function", str(w), "--delta", "1/10"]) == 0
        payload = ser.read_json(tmp_path / "truncation.json")
        assert payload["cutoff"] == 4
        assert payload["residual_correlation"] == "0/1"

    @pytest.mark.parametrize("command", list(EVERY_COMMAND))
    def test_manifests_written(self, plan_dir, command):
        write_indicator(plan_dir)
        ser.write_json(plan_dir / "w.json", ser.walsh_to_dict(
            WalshPolynomial.from_terms([((0,), Fraction(1, 2))])))
        out = plan_dir / "run"
        assert main(["--out-dir", str(out), command,
                     *(arg.format(plan=plan_dir) for arg in EVERY_COMMAND[command])]) == 0
        manifest_path = out / f"{command}_manifest.json"
        manifest = ser.read_json(manifest_path)
        assert manifest["command"] == command
        written = {str(path) for path in out.iterdir() if path != manifest_path}
        assert sorted(manifest["outputs"]) == sorted(written)

    def test_manifest_records_the_source_revision(self, plan_dir):
        root = Path(__file__).resolve().parents[1]
        if not (root / ".git").exists() or shutil.which("git") is None:
            pytest.skip("not a git checkout")
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
        manifest = ser.read_json(plan_dir / "plan_manifest.json")
        assert manifest["arguments"]["version"] == head


class TestDeterminism:
    def test_seeded_simulation_is_reproducible(self, plan_dir, tmp_path):
        f = write_indicator(plan_dir)
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            assert main(["--out-dir", str(d), "simulate", "--kind", "poisson",
                         "--spec", str(plan_dir / "spec_s.json"),
                         "--function", f, "--depth", "3", "--steps", "0",
                         "--samples", "1000", "--seed", "42"]) == 0
            outs.append((d / "simulation.json").read_bytes())
        assert outs[0] == outs[1]
