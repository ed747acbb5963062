"""Seeded inputs and the CLI command chain of each workload.

The chain is schedule, plan, verify S and T, report, correlate,
spectrum, simulate gaussian, simulate poisson and lemma3.  A workload's
shape decides the sizes and which of these commands its end-to-end
rounds time; the others either belong to its set-up or run only in the
traced pass, which always runs the whole chain so that every layer is
measured on every workload:

* ``certify-horizon`` times schedule through report at a long horizon
  (3e4), where plan, verify and correlate spend their time in per-lag
  ``Fraction`` brackets.
* ``dense-engine`` times one ``correlate`` on a hand-built dense spec
  whose engine window covers the whole tower, over 64 far lags.
* ``lift`` sets up a planned pair and its correlation table, then times
  the spectral, Gaussian, Poisson and Walsh steps at full size.

The seed moves the horizon by under 1 %, permutes the dense spacers,
draws the four-level function, the Walsh polynomial, the Poisson lag and
the simulation seeds; it leaves the amount of work the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

GROWTH = "8"
POLY = '{"coefficients": {"0": "1/2", "1": "1/4"}}'
GENERIC_CUTS = "4"
# (cuts, spacers) of the dense spec's open stages; the spacers are permuted
# per seed, so the tower heights and the engine's work do not depend on it
DENSE_STAGES = ((4, (0, 2, 3, 5)),) * 6 + ((3, (0, 2, 5)),)
DENSE_LAGS = 64


@dataclass(frozen=True)
class Lift:
    order: int          # spectrum smoothing order
    grid: int           # spectrum grid size
    lag_max: int        # gaussian lags checked; paths have 2 * lag_max + 1 values
    samples: int        # gaussian paths
    depth: int          # poisson tower depth
    configs: int        # poisson configurations
    walsh_terms: int    # terms drawn for the lemma3 polynomial
    walsh_reach: int    # indices drawn from [-walsh_reach, walsh_reach]
    delta: str          # lemma3 distance guarantee


LIGHT = Lift(64, 1024, 50, 200, 2, 10_000, 24, 12, "1/100")
FULL = Lift(1000, 8192, 500, 2000, 3, 300_000, 1000, 400, "1/1000")


@dataclass(frozen=True)
class Shape:
    horizon: int
    lift: Lift
    timed: tuple[str, ...]         # commands the end-to-end rounds time
    setup: tuple[str, ...] = ()    # commands that belong to the set-up
    dense: bool = False


CERTIFY = ("schedule", "plan", "verify_s", "verify_t", "correlate", "report")
LIFTS = ("spectrum", "gaussian", "poisson", "lemma3")
SHAPES = {
    "certify-horizon": Shape(30_000, LIGHT, timed=CERTIFY),
    "dense-engine": Shape(1_000, LIGHT, timed=("correlate",), dense=True),
    "lift": Shape(2_000, FULL, timed=LIFTS, setup=("schedule", "plan", "correlate")),
}


@dataclass
class Inputs:
    dir: Path
    shape: Shape
    horizon: int
    steps: int                     # poisson lag, inside the first zero interval of S
    gaussian_seed: int
    poisson_seed: int
    dense_lags: range | None = None


@dataclass
class Command:
    label: str
    metric: str | None             # its per-layer ``command.*`` metric, if any
    argv: list[str]
    check: Callable[[], list[str]]


def make_inputs(workload: str, seed: int, where: Path) -> Inputs:
    """Write the workload's input files under ``where``."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    where.mkdir(parents=True, exist_ok=True)
    inp = Inputs(
        dir=where,
        shape=shape,
        horizon=shape.horizon + rng.randrange(shape.horizon // 100),
        steps=rng.randint(2, 12),
        gaussian_seed=rng.randrange(2 ** 31),
        poisson_seed=rng.randrange(2 ** 31),
    )
    _write_json(where / "f.json", {"stage": 1, "coefficients": {"0": "1/1"}})
    _write_json(where / "walsh.json", _walsh(rng, shape.lift))
    if shape.dense:
        inp.dense_lags = _write_dense(rng, where, shape.lift)
    return inp


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n")


def _walsh(rng: random.Random, lift: Lift) -> dict:
    """A zero-mean shift polynomial: products of one to three coordinates."""
    terms = []
    for _ in range(lift.walsh_terms):
        idx = sorted(rng.sample(range(-lift.walsh_reach, lift.walsh_reach + 1), rng.randint(1, 3)))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        terms.append({"indices": idx, "coefficient": oracle.frac_str(c)})
    return {"terms": terms}


def _write_dense(rng: random.Random, where: Path, lift: Lift) -> range:
    """Seven dense stages with spacers 0-5, a signed four-level function on
    the stage-2 tower, and a closing stage whose spacer exceeds the engine
    window of the lags ending at the largest occurrence difference."""
    stages = []
    for cuts, spacers in DENSE_STAGES:
        stages.append((cuts, tuple(rng.sample(spacers, cuts))))
    open_spec = oracle.Spec(1, tuple(stages))
    h2 = open_spec.heights()[1]
    levels = sorted(rng.sample(range(h2), 4))
    coeffs = {l: Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3)) for l in levels}
    top = int(oracle.occurrences(open_spec, 2)[-1])
    window = top + 2 * levels[-1]
    spec = oracle.Spec(1, (*stages, (2, (window + 1,) * 2)))
    _write_json(where / "dense.json", {
        "base_height": 1,
        "stages": [{"cuts": c, "spacers": list(s)} for c, s in spec.stages],
    })
    _write_json(where / "f4.json", {
        "stage": 2, "coefficients": {str(l): oracle.frac_str(c) for l, c in coeffs.items()},
    })
    # the Gaussian and spectrum steps need a table from lag 0; this one is
    # the exact sequence of the dense function, counted by the checker
    n_max = max(lift.order - 1, 2 * lift.lag_max)
    values = oracle.exact_table(spec, 2, coeffs, range(n_max + 1))
    oracle.write_table(where / "lift_table.tsv", values, oracle.norm_sq(spec, 2, coeffs), "f4")
    return range(top - DENSE_LAGS + 1, top + 1)


def chain(inp: Inputs, out: Path) -> list[Command]:
    """The workload's commands in order, each with its output check."""
    i, s, lift, h = inp.dir, inp.shape, inp.shape.lift, inp.horizon
    spec_s, f = out / "spec_s.json", i / "f.json"
    table = i / "lift_table.tsv" if s.dense else out / "correlations.tsv"

    def cmd(label, metric, argv, check):
        return Command(label, metric, ["--out-dir", str(out), *map(str, argv)], check)

    if s.dense:
        lags = inp.dense_lags
        correlate = cmd("correlate", "correlate_s",
                        ["correlate", "--spec", i / "dense.json", "--function", i / "f4.json",
                         "--n-min", lags.start, "--n-max", lags.stop - 1],
                        lambda: oracle.check_dense_table(out / "correlations.tsv", i / "dense.json",
                                                         i / "f4.json", lags))
    else:
        correlate = cmd("correlate", "correlate_s",
                        ["correlate", "--spec", spec_s, "--function", f, "--n-max", h],
                        lambda: oracle.check_indicator_table(out / "correlations.tsv", spec_s, h))
    return [
        cmd("schedule", None, ["schedule", "--growth", GROWTH, "--horizon", h],
            lambda: oracle.check_schedule(out / "schedule.json", h)),
        cmd("plan", "plan_s", ["plan", "--schedule", out / "schedule.json", "--poly", POLY,
                               "--generic-cuts", GENERIC_CUTS],
            lambda: oracle.check_plan(out, h)),
        *(cmd(f"verify_{x}", "verify_s",
              ["verify", "--spec", out / f"spec_{x}.json", "--cert", out / f"cert_{x}.json"],
              lambda x=x: oracle.check_verify(out, out / f"spec_{x}.json", out / f"cert_{x}.json", h))
          for x in "st"),
        correlate,
        cmd("report", None, ["report", "--plan-dir", out], lambda: oracle.check_report(out)),
        cmd("spectrum", "spectrum_s",
            ["spectrum", "--table", table, "--order", lift.order, "--grid", lift.grid],
            lambda: oracle.check_spectrum(out, table, lift.order, lift.grid)),
        cmd("gaussian", "gaussian_s",
            ["simulate", "--kind", "gaussian", "--table", table, "--lag-max", lift.lag_max,
             "--samples", lift.samples, "--seed", inp.gaussian_seed, "--out", "gaussian.json"],
            lambda: oracle.check_gaussian(out / "gaussian.json", table, lift.lag_max, lift.samples)),
        cmd("poisson", "poisson_s",
            ["simulate", "--kind", "poisson", "--spec", spec_s, "--function", f,
             "--depth", lift.depth, "--steps", inp.steps, "--samples", lift.configs,
             "--seed", inp.poisson_seed, "--out", "poisson.json"],
            lambda: oracle.check_poisson(out / "poisson.json", spec_s, inp.steps, lift.depth,
                                         lift.configs)),
        cmd("lemma3", None, ["lemma3", "--function", i / "walsh.json", "--delta", lift.delta],
            lambda: oracle.check_lemma3(out / "truncation.json", i / "walsh.json",
                                        Fraction(lift.delta))),
    ]


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 4 or sys.argv[1] not in SHAPES:
        sys.exit(f"usage: python3 perfbench/workloads.py {{{','.join(SHAPES)}}} SEED DIR")
    made = make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(f"inputs in {made.dir}: horizon {made.horizon}, poisson lag {made.steps}"
          + (f", lags {made.dense_lags.start}..{made.dense_lags[-1]}" if made.dense_lags else ""))
