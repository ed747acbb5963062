import ast
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rankpair import LevelFunction, RankOneSpec, StageSpec, WalshPolynomial, correlation_sequence
from rankpair import serialize as ser
from rankpair import cli, correlation
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

    @pytest.mark.parametrize("plan, tamper, line", [
        # the stage applied at height 34 of both golden plans has 4 cuts
        ("poly", lambda cert: cert["polynomial_claims"][0].update(cuts=2),
         "S polynomial claim at 34 does not recompute: cuts 2 -> 4"),
        ("default", lambda cert: cert["rigidity_times"][0].update(cuts=2, target="1/2"),
         "S rigidity claim at 34 does not recompute: cuts 2 -> 4, target 1/2 -> 3/4"),
        # a claimed cuts of 0 is a wrong claim, not a division by zero
        ("default", lambda cert: cert["rigidity_times"][0].update(cuts=0),
         "S rigidity claim at 34 does not recompute: cuts 0 -> 4"),
        # S's stages are applied at heights 1, 34 and 136, none at 17
        ("default", lambda cert: cert["rigidity_times"].append(
            {"time": 17, "cuts": 4, "lower_bound": "7/8", "target": "3/4", "satisfied": True}),
         "S rigidity claim at 17 does not recompute: satisfied True -> False"),
        ("default", lambda cert: cert.update(min_distance_ledger=[[1, 5], [2, 34], [3, 65656]]),
         "S ledger at stage 1 does not recompute: [1, 5] -> [1, 17]"),
    ], ids=["polynomial-cuts", "rigidity-cuts", "rigidity-cuts-0", "rigidity-without-stage",
            "ledger"])
    def test_tampered_field_is_two(self, tmp_path, capsys, plan, tamper, line):
        """A certificate field that the spec determines is recomputed, and
        verify names the first one that differs."""
        plan = shutil.copytree(Path(__file__).parent / "golden" / plan, tmp_path / plan)
        cert = ser.read_json(plan / "cert_s.json")
        tamper(cert)
        ser.write_json(plan / "cert_s.json", cert)
        code = main(["--out-dir", str(tmp_path), "verify",
                     "--spec", str(plan / "spec_s.json"),
                     "--cert", str(plan / "cert_s.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"verify FAILED: {line}"]

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

    def test_plan_summary_that_does_not_recompute_is_two(self, tmp_path, capsys):
        plan = shutil.copytree(Path(__file__).parent / "golden" / "default", tmp_path / "plan")
        summary = ser.read_json(plan / "plan.json")
        summary["n_zero_threshold"] = 2
        ser.write_json(plan / "plan.json", summary)
        assert main(["--out-dir", str(tmp_path), "report", "--plan-dir", str(plan)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "report FAILED: plan.json claims n0 2, sound True; recomputed n0 1, sound True"
        ]

    def test_recomputed_claim_that_fails_is_two(self, tmp_path, capsys):
        """A certificate that recomputes field for field but records a
        violated claim is still a violation: feeding verify's own
        recomputation back in names the claim that does not hold."""
        plan = shutil.copytree(Path(__file__).parent / "golden" / "default", tmp_path / "plan")
        spec = ser.read_json(plan / "spec_s.json")
        spec["stages"][0]["spacers"] = [1, 1]
        ser.write_json(plan / "spec_s.json", spec)
        out = str(tmp_path)
        verify = ["--out-dir", out, "verify", "--spec", str(plan / "spec_s.json"), "--cert"]
        assert main([*verify, str(plan / "cert_s.json")]) == 2
        recomputed = ser.read_json(tmp_path / "verify_report.json")["recomputed"]
        ser.write_json(tmp_path / "recomputed.json", recomputed)
        capsys.readouterr()
        assert main([*verify, str(tmp_path / "recomputed.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "verify FAILED: S zero claim on [1, 16] does not hold"
        ]


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
# a lag-0 bracket past the largest double: every float conversion of it overflows
HUGE_TABLE = EMPTY_TABLE + f"0\t{10 ** 400}/1\t{10 ** 400}/1\n1\t0/1\t0/1\n"
GAPPY_TABLE = EMPTY_TABLE + "0\t1/1\t1/1\n2\t0/1\t0/1\n"  # lag 1 missing
OVERFLOW = "input error: integer division result too large for a float"


def correlate(spec, function="f.json"):
    return ["correlate", "--spec", spec, "--function", function, "--n-max", "5"]


N_MIN_ABOVE_N_MAX = correlate(GOLDEN_SPEC) + ["--n-min", "6"]
# 2**21 + 1 lags, on a plan that covers them all: the cap refuses the run before it
# allocates a table entry for every lag
LAG_CAP = ["correlate", "--spec", "h1e9/spec_s.json", "--function", "f.json",
           "--n-min", "0", "--n-max", str(2 ** 21)]
GAUSSIAN_MATRIX_CAP = ["simulate", "--kind", "gaussian", "--table", GOLDEN_TABLE,
                       "--lag-max", "1000", "--samples", "9000"]


@pytest.mark.parametrize("argv, fragment", [
    (["correlate", "--spec", GOLDEN_SPEC, "--function", "f.json", "--n-max", "100000"],
     "ToleranceNotReached: spec exhausted"),
    (["simulate", "--kind", "gaussian"], "--kind gaussian needs --table"),
    (["simulate", "--kind", "poisson"], "--kind poisson needs --spec and --function"),
    (POISSON + ["--intensity", "0"], "intensity must be positive"),
    (POISSON + ["--steps", "100000"], "EscapeCapError: expected escaping fraction"),
    (["plan", "--generic-cuts", "1"], "generic cuts >= 2, got 1"),
    (["plan", "--horizon", "1000", "--poly", '{"coefficients": {"-1": "1/2"}}'],
     "powers must be non-negative"),
    (correlate("spacers-str.json"), "spacers[0]: expected an integer"),
    (correlate("base-height-str.json"), "base_height: expected an integer"),
    (correlate("cuts-float.json"), "cuts: expected an integer, got 2.0"),
    (correlate("top-level-array.json"), "top level: expected an object"),
    (["lemma3", "--function", "indices-int.json", "--delta", "1/10"],
     "indices: expected an array, got 3"),
    (correlate(GOLDEN_SPEC, "float-coefficient.json"), "coefficients.0: expected a rational"),
    (correlate(GOLDEN_SPEC, "stage-0.json"), "stage-0.json: stage 0 outside [1, 4]"),
    (correlate(GOLDEN_SPEC, "stage-9.json"), "stage-9.json: stage 9 outside [1, 4]"),
    (correlate(GOLDEN_SPEC, "level-past-top.json"), "level 5 outside [0, 1)"),
    (POISSON + ["--depth", "99"], "depth 99 outside [1, 4]"),
    (POISSON[:-1] + ["stage-3.json", "--depth", "2"], "stage 3 is deeper than --depth 2"),
    (POISSON[:-1] + ["stage-9.json"], "stage-9.json: stage 9 outside [1, 4]"),
    (["verify", "--spec", GOLDEN_SPEC, "--cert", "tracked-stage-9.json"],
     "tracked function: stage 9 outside [1, 4]"),
    (POISSON + ["--intensity", "1e12", "--samples", "10"], "expected points, over the cap"),
    (["simulate", "--kind", "poisson", "--spec", "wide-tower.json", "--function", "f.json",
      "--depth", "4"], "cells at depth 4, over the cap"),
    (GAUSSIAN_MATRIX_CAP, "with 9000 paths needs an array of"),
    (["schedule", "--growth", "1/0", "--horizon", "10"], "--growth: invalid rational value"),
    (["plan", "--growth", "1/0"], "--growth: invalid rational value"),
    (["lemma3", "--function", "w.json", "--delta", "1/0"], "--delta: invalid rational value"),
    (["simulate", "--kind", "gaussian", "--table", GOLDEN_TABLE, "--lag-max", "-1"],
     "--lag-max must be at least 0"),
    (["spectrum", "--table", GOLDEN_TABLE, "--exact", "--grid", "0"], "grid must be positive"),
    (["spectrum", "--table", "empty.tsv", "--exact"], "empty.tsv: the table is empty"),
    (N_MIN_ABOVE_N_MAX, "--n-min 6 is above --n-max 5"),
    (LAG_CAP, "usage error: 2097153 lags asked for, over the cap 2097152"),
    (["spectrum", "--table", "huge.tsv", "--exact"], OVERFLOW),
    (["spectrum", "--table", "huge.tsv", "--order", "2"], OVERFLOW),
    (["simulate", "--kind", "gaussian", "--table", "huge.tsv", "--lag-max", "0"], OVERFLOW),
    (["spectrum", "--table", "gappy.tsv", "--order", "3"],
     "input error: n=1 not covered by sequence 'f'"),
], ids=["tolerance", "gaussian-no-table", "poisson-no-spec", "intensity-0",
        "escape-cap", "generic-cuts-1", "negative-power",
        "spacers-str", "base-height-str", "cuts-float", "top-level-array", "indices-int",
        "float-coefficient", "function-stage-0", "function-stage-9", "level-past-top",
        "poisson-depth-99", "function-deeper-than-depth", "poisson-function-stage-9",
        "tracked-stage-9", "poisson-point-cap", "poisson-cell-cap", "gaussian-matrix-cap",
        "schedule-zero-denominator", "plan-zero-denominator", "lemma3-zero-denominator",
        "gaussian-lag-max-minus-1", "spectrum-grid-0", "spectrum-empty-table",
        "n-min-above-n-max", "lag-cap", "spectrum-exact-overflow",
        "spectrum-order-2-overflow", "gaussian-overflow", "spectrum-order-3-gap"])
def test_failure_is_one_line_and_exit_one(tmp_path, monkeypatch, capsys, argv, fragment):
    monkeypatch.chdir(tmp_path)
    write_indicator(tmp_path)
    for name, content in {**MALFORMED, **MISFIT, **OVERSIZED}.items():
        (tmp_path / name).write_text(json.dumps(content))
    ser.write_json(tmp_path / "w.json", WalshPolynomial.from_terms([([1], 1)]))
    (tmp_path / "empty.tsv").write_text(EMPTY_TABLE)
    (tmp_path / "huge.tsv").write_text(HUGE_TABLE)
    (tmp_path / "gappy.tsv").write_text(GAPPY_TABLE)
    if argv is LAG_CAP:
        assert main(["--out-dir", "h1e9", "plan", "--horizon", str(10 ** 9)]) == 0
    assert main(["--out-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("*_manifest.json"))
    assert fragment in err


@pytest.mark.parametrize("argv, message", [
    (N_MIN_ABOVE_N_MAX, "usage error: --n-min 6 is above --n-max 5"),
    (["schedule", "--growth", "1/0", "--horizon", "10"],
     "usage error: argument --growth: invalid rational value: '1/0'"),
    (["simulate", "--kind", "gaussian", "--table", GOLDEN_TABLE, "--lag-max", "-1"],
     "usage error: --lag-max must be at least 0, got -1"),
    (GAUSSIAN_MATRIX_CAP, "MemoryCapError: length 2001 with 9000 paths needs an array of "
     "18009000 entries, over the cap 16777216"),
])
def test_flag_errors_name_the_flag(tmp_path, capsys, argv, message):
    assert main(["--out-dir", str(tmp_path), *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


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


class TestPast2To63:
    """Horizons past ``2**63 - 1``, where a lag range's length no longer
    fits a machine integer."""

    HORIZON = 10 ** 19

    @pytest.fixture(scope="class")
    def plan(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plan")
        assert main(["--out-dir", str(out), "plan", "--horizon", str(self.HORIZON)]) == 0
        return out

    def test_plan_verify_and_report_pass(self, plan):
        for side in "st":
            assert main(["--out-dir", str(plan / side), "verify",
                         "--spec", str(plan / f"spec_{side}.json"),
                         "--cert", str(plan / f"cert_{side}.json")]) == 0
        assert main(["--out-dir", str(plan), "report", "--plan-dir", str(plan)]) == 0

    def test_widened_zero_claim_names_its_first_violation(self, plan, tmp_path, capsys):
        cert = ser.read_json(plan / "cert_s.json")
        claim = cert["zero_intervals"][0]
        claim["checked"] = [1, self.HORIZON]
        ser.write_json(tmp_path / "cert_s.json", cert)
        assert main(["--out-dir", str(tmp_path), "verify", "--spec", str(plan / "spec_s.json"),
                     "--cert", str(tmp_path / "cert_s.json")]) == 2
        spec = ser.spec_from_dict(ser.read_json(plan / "spec_s.json"))
        f = LevelFunction.indicator(1)
        first = correlation_sequence(spec, f, range(1, 10 ** 4)).support()[0]
        lo, hi = claim["interval"]
        assert capsys.readouterr().err.splitlines() == [
            f"verify FAILED: S zero claim on [{lo}, {hi}] does not recompute: "
            f"verdict exact-zero -> violated, first_violation None -> {first}"
        ]


class TestPast10To300(TestPast2To63):
    """The same at ``10**300``, where S's plan has 167 stages and each
    zero claim costs one range query."""

    HORIZON = 10 ** 300


def test_engine_memo_cap_is_one_line_and_exit_one(tmp_path, monkeypatch, capsys):
    """A correlate whose engine sums would pass the cap stops before they
    grow further: one line naming the cap, no manifest.  Levels 0 and 5
    make each lag read 11 differences, all with pairs."""
    monkeypatch.setattr(correlation, "MEMO_CAP", 4)
    spec, f = tmp_path / "dense.json", tmp_path / "f.json"
    ser.write_json(spec, ser.spec_to_dict(RankOneSpec(stages=(StageSpec(3, (0, 1, 2)),) * 4)))
    ser.write_json(f, ser.level_function_to_dict(LevelFunction.from_dict(2, {0: 1, 5: 1})))
    assert main(["--out-dir", str(tmp_path), "correlate", "--spec", str(spec),
                 "--function", str(f), "--n-max", "10"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "MemoryError: correlation engine: pair counts held over the cap 4"]
    assert not list(tmp_path.glob("*_manifest.json"))


def test_out_of_memory_is_named(tmp_path, monkeypatch, capsys):
    """Python raises running out of memory with an empty message; the line
    still says what happened."""
    def plan_pair(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "plan_pair", plan_pair)
    assert main(["--out-dir", str(tmp_path), "plan", "--horizon", "100"]) == 1
    assert capsys.readouterr().err.splitlines() == ["MemoryError: out of memory"]
    assert not list(tmp_path.glob("*_manifest.json"))


@pytest.mark.parametrize("row, problem", [
    ("0\t1/1", "expected 3 tab-separated fields, got 2"),
    ("0\t1/1\thalf", "'half' is not a rational"),
    ("0\t1/0\t1/1", "'1/0' is not a rational"),
    ("0\t0/1\t0/1\textra", "expected 3 tab-separated fields, got 4"),
    ("0\t0/0\t0/1", "'0/0' is not a rational"),
    # a header is read only up to its tab: without one it is a row
    ("# subject", "expected 3 tab-separated fields, got 1"),
    ("n", "expected 3 tab-separated fields, got 1"),
])
def test_malformed_table_row_names_file_and_line(tmp_path, capsys, row, problem):
    table = tmp_path / "table.tsv"
    table.write_text(f"# subject\tf\n# norm_sq\t1/1\nn\tlower\tupper\n{row}\n1\t0/1\t0/1\n")
    assert main(["--out-dir", str(tmp_path), "spectrum", "--table", str(table)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"input error: {table}: line 4: {problem}"]


def test_repeated_lag_with_another_bracket_names_its_line(tmp_path, capsys):
    """A lag may repeat with the same bracket; with another one the table
    is refused, rather than the last row winning."""
    table = tmp_path / "table.tsv"
    rows = "0\t1/1\t1/1\n" + "".join(f"{n}\t0/1\t0/1\n" for n in range(1, 5))
    rows += "5\t1/4\t1/4\n5\t1/4\t1/4\n"
    table.write_text(EMPTY_TABLE + rows)
    assert main(["--out-dir", str(tmp_path), "spectrum", "--table", str(table), "--exact"]) == 0
    table.write_text(EMPTY_TABLE + rows + "5\t0/1\t0/1\n")
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "spectrum", "--table", str(table), "--exact"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"input error: {table}: line 11: lag 5 appears twice with different brackets"
    ]


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


def test_commands_spawn_no_process(tmp_path):
    """A CLI run starts no subprocess: ``platform.platform()`` spawns
    ``uname -p`` on Linux, and the manifest must not call it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "spawned = []\n"
        "sys.addaudithook(lambda event, args: event.startswith(('subprocess.', 'os.exec', "
        "'os.fork', 'os.posix_spawn', 'os.spawn', 'os.system')) and spawned.append(event))\n"
        "import rankpair.cli\n"
        f"code = rankpair.cli.main(['--out-dir', {str(tmp_path)!r}, 'schedule', '--horizon', '100'])\n"
        "sys.exit(code or ', '.join(spawned) or None)\n"
    )
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                   check=True)
    assert (tmp_path / "schedule_manifest.json").exists()


LOADS = {  # the rankpair layers each command imports, beyond cli, core and serialize
    None: set(),
    "--help": set(),
    "schedule": {"schedule"},
    "plan": {"correlation", "pairplan", "schedule"},
    "verify": {"correlation", "pairplan"},
    "correlate": {"correlation"},
    "report": {"correlation", "pairplan"},
    "lemma3": {"walsh"},
    "spectrum": {"correlation", "spectral"},
    "simulate": {"correlation", "suspension"},
}
# modules no command but spectrum and simulate loads
FORBIDDEN = {"numpy", "platform", "datetime", "dataclasses", "inspect"}


@pytest.mark.parametrize("command", list(LOADS))
def test_each_command_loads_only_its_layers(plan_dir, command):
    """In a fresh interpreter, ``import rankpair`` loads no submodule, and a
    command loads only the layers it runs; the certification commands load
    neither numpy, ``platform``, ``datetime``, ``dataclasses`` nor ``inspect``."""
    write_indicator(plan_dir)
    ser.write_json(plan_dir / "w.json", ser.walsh_to_dict(
        WalshPolynomial.from_terms([((0,), Fraction(1, 2))])))
    argv = ["--out-dir", str(plan_dir / "run"), command,
            *(arg.format(plan=plan_dir) for arg in EVERY_COMMAND.get(command, []))]
    run = (f"import rankpair.cli\ntry:\n    rankpair.cli.main({argv!r})\n"
           "except SystemExit:\n    pass\n") if command else "import rankpair\n"
    code = run + ("import sys\nprint(sorted(m for m in sys.modules if m.startswith('rankpair.')"
                  f" or m in {sorted(FORBIDDEN)!r}))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          check=True, capture_output=True, text=True)
    loaded = set(ast.literal_eval(done.stdout.splitlines()[-1]))
    layers = {m.removeprefix("rankpair.") for m in loaded if m.startswith("rankpair.")}
    expected = LOADS[command] | ({"cli", "core", "serialize"} if command else set())
    assert layers == expected
    if command not in ("spectrum", "simulate"):
        assert not loaded & FORBIDDEN


def test_poisson_simulation_leaves_numpy_ma_unloaded(plan_dir):
    """In a fresh interpreter, ``simulate --kind poisson`` does not import
    ``numpy.ma``, which ``np.union1d`` would load through ``np.unique``."""
    f = write_indicator(plan_dir)
    argv = ["--out-dir", str(plan_dir / "run"), "simulate", "--kind", "poisson",
            "--spec", str(plan_dir / "spec_s.json"), "--function", f, "--depth", "3",
            "--steps", "1", "--samples", "100"]
    code = (f"import sys, rankpair.cli\ncode = rankpair.cli.main({argv!r})\n"
            "sys.exit(code or ('numpy.ma' in sys.modules and 'numpy.ma was loaded'))")
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                   check=True)


def test_manifest_platform_and_times(plan_dir):
    """The manifest's platform string is ``platform.platform()``'s formula
    without the processor, and its times are UTC ISO-8601."""
    import platform
    from datetime import datetime, timedelta

    uname = platform.uname()
    lib, version = platform.libc_ver()
    parts = (uname.system, uname.release, uname.machine, "with" if lib else "", lib + version)
    assert ser._platform() == "-".join(part for part in parts if part)
    manifest = ser.read_json(plan_dir / "plan_manifest.json")
    assert manifest["platform"] == ser._platform()
    started, finished = (datetime.fromisoformat(manifest[k]) for k in ("started_at", "finished_at"))
    assert started.utcoffset() == finished.utcoffset() == timedelta(0)
    assert started <= finished <= datetime.now(started.tzinfo)


def test_exported_names_have_a_user():
    """Every name ``rankpair`` exports resolves, is no submodule, and is
    imported by ``rankpair.cli`` or called there as ``_here.<name>``,
    imported by the acceptance tests, or an error class that ``main`` maps
    to exit 1."""
    import rankpair

    cli_tree = ast.parse(Path(cli.__file__).read_text())
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    used = {alias.name for tree in (cli_tree, acceptance) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    used.update(node.attr for node in ast.walk(cli_tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "_here")
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
    for name in ("generate_schedule", "plan_pair", "check_certificate", "correlation_sequence",
                 "summability_report", "fejer_density", "gaussian_sample", "lemma3_truncate"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    out = str(tmp_path)
    f = write_indicator(tmp_path)
    ser.write_json(tmp_path / "w.json", ser.walsh_to_dict(
        WalshPolynomial.from_terms([((0,), Fraction(1, 2))])))
    for argv in (["schedule", "--horizon", "100"],
                 ["plan", "--horizon", "100"],
                 ["verify", "--spec", f"{out}/spec_s.json", "--cert", f"{out}/cert_s.json"],
                 ["correlate", "--spec", f"{out}/spec_s.json", "--function", f, "--n-max", "10"],
                 ["spectrum", "--table", GOLDEN_TABLE, "--order", "8", "--grid", "64"],
                 ["simulate", "--kind", "gaussian", "--table", GOLDEN_TABLE,
                  "--lag-max", "5", "--samples", "100"],
                 ["lemma3", "--function", f"{out}/w.json", "--delta", "1/10"]):
        assert main(["--out-dir", out, *argv]) == 0
    assert calls == ["generate_schedule", "generate_schedule", "plan_pair", "check_certificate",
                     "correlation_sequence", "fejer_density", "summability_report",
                     "gaussian_sample", "lemma3_truncate"]


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

    def test_schedule_short_of_the_horizon_gets_a_closing_stage(self, tmp_path):
        # S's only block ends at 50, below the horizon 100, so the planner
        # closes S with a stage whose spacers pass the horizon
        out = str(tmp_path)
        ser.write_json(tmp_path / "schedule.json", {"horizon": 100, "blocks": [
            {"i": [1, 50], "j": [1, 100], "i_tilde": None, "j_tilde": None}]})
        assert main(["--out-dir", out, "plan", "--schedule", str(tmp_path / "schedule.json")]) == 0
        spec = ser.read_json(tmp_path / "spec_s.json")
        assert spec["stages"][-1] == {"cuts": 2, "spacers": [101, 101]}
        assert main(["--out-dir", out, "report", "--plan-dir", out]) == 0

    def test_schedule_with_a_gap_is_a_usage_error(self, tmp_path, capsys):
        ser.write_json(tmp_path / "schedule.json", {"horizon": 100, "blocks": [
            {"i": [1, 50], "j": [1, 60], "i_tilde": None, "j_tilde": None}]})
        assert main(["--out-dir", str(tmp_path), "plan",
                     "--schedule", str(tmp_path / "schedule.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "usage error: schedule invalid: uncovered: 61"
        ]

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
                     "--samples", "2000", "--intensity", "2", "--out", "poisson.json"]) == 0
        payload = ser.read_json(plan_dir / "poisson.json")
        assert payload["ci_contains_exact"]
        assert main(["--out-dir", out, "simulate", "--kind", "gaussian",
                     "--table", str(plan_dir / "correlations.tsv"),
                     "--lag-max", "5", "--samples", "200", "--out", "gaussian.json"]) == 0
        # each run keeps its own manifest in the shared directory
        stats = ser.read_json(plan_dir / "poisson_manifest.json")["stats"]
        assert stats["configurations"] == 2000 and stats["escape_basis"] == "whole tower"
        assert Fraction(stats["region_measure"]) / stats["region_cells"] == Fraction(1, 8)
        assert Fraction(stats["tower_measure"]) > Fraction(stats["region_measure"])
        from rankpair import suspension

        stats = ser.read_json(plan_dir / "gaussian_manifest.json")["stats"]
        # 200 paths are two blocks of 128, on as many workers as CPUs allow;
        # the table is white noise, so it embeds in the least 5-smooth size
        # at least 11, not in 2 * 11 - 2
        assert stats == {"length": 11, "repaired": False, "sampler": "circulant",
                         "embedding_min": stats["embedding_min"], "embedding_size": 12,
                         "blocks": 2, "workers": min(2, suspension._usable_cpus())}
        assert stats["embedding_min"] >= 0

    def test_outputs_restate_what_the_command_holds(self, plan_dir):
        from rankpair import SimulationConfig, gaussian_sample

        f = write_indicator(plan_dir)
        out = str(plan_dir)
        spec_path = str(plan_dir / "spec_s.json")
        table = str(plan_dir / "correlations.tsv")
        assert main(["--out-dir", out, "correlate", "--spec", spec_path,
                     "--function", f, "--n-max", "40"]) == 0
        for flags, exact in ((["--exact"], True), (["--order", "8"], False)):
            assert main(["--out-dir", out, "spectrum", "--table", table,
                         "--grid", "64", *flags]) == 0
            assert ser.read_json(plan_dir / "spectrum_summary.json")["exact"] is exact
        h = ser.spec_from_dict(ser.read_json(spec_path)).heights()[2]
        for steps in (-3, 5):
            assert main(["--out-dir", out, "simulate", "--kind", "poisson", "--spec", spec_path,
                         "--function", f, "--depth", "3", "--steps", str(steps),
                         "--samples", "200", "--out", "poisson.json"]) == 0
            payload = ser.read_json(plan_dir / "poisson.json")
            assert payload["escape_fraction"] == min(abs(steps), h) / h
        assert main(["--out-dir", out, "simulate", "--kind", "gaussian", "--table", table,
                     "--lag-max", "5", "--samples", "200", "--seed", "3",
                     "--out", "gaussian.json"]) == 0
        seq = ser.correlation_table_from_tsv(Path(table).read_text())
        sample = gaussian_sample(seq, 11, SimulationConfig(sample_count=200, seed=3))
        errors = {str(lag): abs(sample.sample_covariance(lag) - float(seq.midpoint(lag)))
                  for lag in range(6)}
        assert ser.read_json(plan_dir / "gaussian.json")["errors"] == errors

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

    def test_lemma3_rechecks_the_cutoff(self, tmp_path, monkeypatch, capsys):
        """A cutoff rule that returns half the spread is caught by the
        recheck, which names the first shift past it that overlaps."""
        from rankpair import walsh

        monkeypatch.setattr(walsh, "shift_cutoff",
                            lambda p: (p.index_span()[1] - p.index_span()[0] + 1) // 2)
        w = tmp_path / "w.json"
        ser.write_json(w, ser.walsh_to_dict(WalshPolynomial.from_terms(
            [((i,), Fraction(1, 2)) for i in range(4)]
        )))
        assert main(["--out-dir", str(tmp_path), "lemma3",
                     "--function", str(w), "--delta", "1/10"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "lemma3 FAILED: shift 3 is past the cutoff 2 but carries an index set of f' onto another"
        ]
        payload = ser.read_json(tmp_path / "truncation.json")
        assert (payload["cutoff"], payload["residual_correlation"]) == (2, "1/4")

    @pytest.mark.parametrize("command", list(EVERY_COMMAND))
    def test_manifests_written(self, plan_dir, command):
        write_indicator(plan_dir)
        ser.write_json(plan_dir / "w.json", ser.walsh_to_dict(
            WalshPolynomial.from_terms([((0,), Fraction(1, 2))])))
        out = plan_dir / "run"
        assert main(["--out-dir", str(out), command,
                     *(arg.format(plan=plan_dir) for arg in EVERY_COMMAND[command])]) == 0
        [manifest_path] = out.glob("*_manifest.json")
        manifest = ser.read_json(manifest_path)
        assert manifest["command"] == command
        # named after the --out stem, or after the command where there is no --out
        stem = Path(manifest["arguments"].get("out", command)).stem
        assert manifest_path.name == f"{stem}_manifest.json"
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
