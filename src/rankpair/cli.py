"""Command-line pipeline: schedule, plan, verify, correlate, spectrum,
simulate, lemma3, report.

Exit codes: 0 on pass, 1 on usage or input errors and on runs that cannot
finish (tolerance not reached, planning failure, escape cap, memory cap,
out of memory), 2 on a certificate violation.  Every run writes a manifest
``<stem>_manifest.json``, the stem of ``--out`` or else the command, with
enough information (arguments, seed, source revision) to reproduce it
byte-for-byte; ``simulate`` also records there what it sampled (``stats``).
All file writes are atomic.

``main`` owns the run: it makes the output directory (``--out-dir``,
default ``.``) and the manifest, hands the command an output handle, and
writes the manifest when the command returns with exit 0 or 2.  A run
that stops on an error writes no manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

from .core import EscapeCapError, PlanError, ToleranceNotReached, validate_spec
from . import _LAZY, serialize as ser

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
_LAG_CAP = 1 << 21  # lags one correlate run may ask for: each holds a table entry


class UsageError(Exception):
    pass


def __getattr__(name: str):
    """PEP 562: bind a layer name of the package's ``_LAZY`` here on first
    use, so that each command imports only the layers it runs (and the
    certification commands never import numpy).  Commands call these names
    as ``_here.<name>``, so a binding already set as an attribute, such as
    a tracing wrapper, is the one that runs."""
    if not any(name in names for names in _LAZY.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(__package__), name)
    return value


_here = sys.modules[__name__]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _revision() -> str:
    """Commit checked out in the source tree, read from its ``.git`` files:
    ``HEAD``, then the loose ref or ``packed-refs``; ``"unknown"`` outside
    a checkout."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        ref = head.removeprefix("ref: ")
        if ref == head:  # a detached HEAD holds the commit itself
            return head
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
        return next(line.split()[0] for line in packed if line.endswith(f" {ref}"))
    except (OSError, StopIteration):
        return "unknown"


class _Output:
    """One run's outputs: ``emit`` writes a file to the output directory
    and lists it in the manifest, ``stats`` is the manifest's record of
    what the run did.  ``main`` writes the manifest when the command
    returns."""

    def __init__(self, args):
        self.dir = Path(args.out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        arguments = {k: v for k, v in vars(args).items() if k != "func"}
        self.manifest = ser.RunManifest(args.command, {**arguments, "version": _revision()})
        self.stats = self.manifest.stats

    def emit(self, name: str, payload) -> None:
        path = self.dir / name
        if name.endswith(".tsv"):
            ser.atomic_write_text(path, payload)
        else:
            ser.write_json(path, payload)
        self.manifest.outputs.append(str(path))


@contextlib.contextmanager
def _located(path):
    """Name ``path`` in a ``ValueError`` raised while reading it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read(path, decoder, issues=lambda value: ()):
    """Decode one JSON file: a malformed file is an input error naming it,
    and the first of ``issues(value)`` a usage error naming it."""
    with _located(path):
        value = decoder(ser.read_json(path))
    problems = issues(value)
    if problems:
        raise UsageError(f"{path}: {problems[0]}")
    return value


def _read_table(path):
    """Read one correlation table; a malformed row is an input error naming
    the file and the line, an empty table one naming the file."""
    with _located(path):
        seq = ser.correlation_table_from_tsv(Path(path).read_text())
        if not seq.entries:
            raise ValueError("the table is empty")
    return seq


def cmd_schedule(args, out: _Output) -> int:
    sched = _here.generate_schedule(growth=args.growth, horizon=args.horizon)
    issues = _here.validate_schedule(sched)
    out.emit(args.out, sched)
    if issues:
        print(f"schedule INVALID: {issues[0]}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"schedule ok: {len(sched.blocks)} blocks, horizon {sched.horizon}")
    return EXIT_PASS


def _policy_from_args(args):
    if args.poly == "rigidity":
        poly = _here.PolynomialSpec.delta(0)
    else:
        poly = ser.decode(_here.PolynomialSpec, json.loads(args.poly), "--poly")
    return _here.GenericPolicy(generic_cuts=args.generic_cuts, generic_poly=poly)


def cmd_plan(args, out: _Output) -> int:
    if args.schedule:
        sched = _read(args.schedule, ser.schedule_from_dict)
    else:
        sched = _here.generate_schedule(growth=args.growth, horizon=args.horizon)
    issues = _here.validate_schedule(sched)
    if issues:
        raise UsageError(f"schedule invalid: {issues[0]}")
    result = _here.plan_pair(sched, _policy_from_args(args))
    out.emit("spec_s.json", result.spec_s)
    out.emit("spec_t.json", result.spec_t)
    out.emit("cert_s.json", result.cert_s)
    out.emit("cert_t.json", result.cert_t)
    out.emit("plan.json", result.summary)
    if not result.pair_sound():
        print("plan FAILED: certificate violation", file=sys.stderr)
        return EXIT_VIOLATION
    print(
        f"plan ok: horizon {result.summary.horizon}, product correlations vanish "
        f"for n >= {result.n_zero_threshold}"
    )
    return EXIT_PASS


def cmd_verify(args, out: _Output) -> int:
    cert, problem = _recheck(args.spec, args.cert)
    out.emit("verify_report.json", {"ok": problem is None, "recomputed": cert})
    if problem:
        print(f"verify FAILED: {problem}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"verify ok: all claims of '{cert.subject}' hold exactly")
    return EXIT_PASS


def cmd_correlate(args, out: _Output) -> int:
    if args.n_min > args.n_max:
        raise UsageError(f"--n-min {args.n_min} is above --n-max {args.n_max}")
    if args.n_max - args.n_min >= _LAG_CAP:
        raise UsageError(f"{args.n_max - args.n_min + 1} lags asked for, over the cap {_LAG_CAP}")
    spec = _read(args.spec, ser.spec_from_dict, validate_spec)
    f = _read(args.function, ser.level_function_from_dict, lambda f: f.issues(spec))
    seq = _here.correlation_sequence(
        spec,
        f,
        range(args.n_min, args.n_max + 1),
        tolerance=Fraction(0),
        subject=Path(args.function).stem,
    )
    out.emit(args.out, ser.correlation_table_to_tsv(seq))
    # tolerance 0 leaves every bracket exact
    print(f"correlate ok: {len(seq.entries)} lags, {len(seq.entries)} exact")
    return EXIT_PASS


def cmd_spectrum(args, out: _Output) -> int:
    seq = _read_table(args.table)
    if args.exact:
        est = _here.trig_polynomial_density(seq, args.grid)
    else:
        est = _here.fejer_density(seq, args.order, args.grid)
    summ = _here.summability_report(seq, (min(seq.entries), max(seq.entries)))
    rows = map("{:.12g}\t{:.12g}".format, est.thetas.tolist(), est.values.tolist())
    out.emit(args.out, "\n".join(["theta\tdensity", *rows]) + "\n")
    out.emit("spectrum_summary.json", {
        "grid_mean": est.grid_mean(),
        "min_value": est.min_value(),
        "exact": args.exact,
        "l1": summ.l1,
        "l2": summ.l2,
        "support": summ.support,
    })
    print(
        f"spectrum ok: grid mean {est.grid_mean():.6g}, "
        f"min {est.min_value():.6g}"
    )
    return EXIT_PASS


def cmd_simulate(args, out: _Output) -> int:
    config = _here.SimulationConfig(sample_count=args.samples, seed=args.seed)
    if args.kind == "gaussian":
        if args.table is None:
            raise UsageError("--kind gaussian needs --table")
        if args.lag_max < 0:
            raise UsageError(f"--lag-max must be at least 0, got {args.lag_max}")
        seq = _read_table(args.table)
        length = args.lag_max * 2 + 1
        sample = _here.gaussian_sample(seq, length, config)
        errors = {lag: abs(sample.sample_covariance(lag) - float(seq.midpoint(lag)))
                  for lag in range(args.lag_max + 1)}
        out.stats.update({"length": length, "repaired": sample.repaired,
                          "sampler": sample.sampler, "embedding_min": sample.embedding_min,
                          "embedding_size": sample.embedding_size,
                          "blocks": sample.blocks, "workers": sample.workers})
        payload = {
            "kind": "gaussian",
            "repaired": sample.repaired,
            "max_abs_error": max(errors.values()),
            "errors": {str(k): v for k, v in errors.items()},
        }
    else:
        if args.spec is None or args.function is None:
            raise UsageError("--kind poisson needs --spec and --function")
        spec = _read(args.spec, ser.spec_from_dict, validate_spec)
        f = _read(args.function, ser.level_function_from_dict, lambda f: f.issues(spec))
        if f.stage > args.depth:
            raise UsageError(f"{args.function}: stage {f.stage} is deeper than "
                             f"--depth {args.depth}")
        pairs = _here.poisson_sample_and_push(
            spec, f, args.depth, args.intensity, args.steps, config
        )
        est = _here.linear_statistic_covariance(pairs, f)
        width = spec.widths()[args.depth - 1]
        out.stats.update({
            "configurations": pairs.n_configs,
            "points": int(pairs.cells.size),
            "region_cells": int(pairs.region.size),
            "region_measure": width * int(pairs.region.size),
            "tower_measure": width * spec.heights()[args.depth - 1],
            "escape_basis": "whole tower",
        })
        exact = _here.correlation_sequence(spec, f, [abs(args.steps)]).entry(abs(args.steps))
        payload = {
            "kind": "poisson",
            "steps": args.steps,
            "estimate": est.estimate,
            "ci": est.ci,
            "stderr": est.stderr,
            "escape_fraction": pairs.escape_fraction,
            "exact_bracket": exact,
            "ci_contains_exact": est.overlaps(*exact),
        }
    out.emit(args.out, payload)
    print(f"simulate ok ({args.kind})")
    return EXIT_PASS


def cmd_lemma3(args, out: _Output) -> int:
    f = _read(args.function, ser.walsh_from_dict)
    trunc = _here.lemma3_truncate(f, args.delta)
    residual = _here.corr_tail_certificate(trunc.f_prime, trunc.cutoff, math.inf)
    out.emit(args.out, {
        "f_prime": trunc.f_prime,
        "cutoff": trunc.cutoff,
        "kept_norm_sq": trunc.kept_norm_sq,
        "tail_frac": trunc.tail_frac,
        "distance_below_delta": trunc.distance_below(args.delta),
        "residual_correlation": residual,
    })
    overlap = trunc.overlap_past_cutoff()
    if overlap is not None:
        print(f"lemma3 FAILED: shift {overlap} is past the cutoff {trunc.cutoff} but carries "
              f"an index set of f' onto another", file=sys.stderr)
        return EXIT_VIOLATION
    if not trunc.distance_below(args.delta):
        print("lemma3 FAILED: truncation guarantee violated", file=sys.stderr)
        return EXIT_VIOLATION
    print(
        f"lemma3 ok: {len(trunc.f_prime.terms)} terms kept, shifted copies "
        f"orthogonal for every n > {trunc.cutoff}"
    )
    return EXIT_PASS


def _recheck(spec_path, cert_path):
    """Load a certificate and recompute its claims and ledger in place from
    its spec; return it with the first claim or ledger entry that does not
    recompute or does not hold, or with ``None``."""
    spec = _read(spec_path, ser.spec_from_dict, validate_spec)
    cert = _read(cert_path, ser.certificate_from_dict)
    claimed = ser.certificate_to_dict(cert)
    _here.check_certificate(spec, cert)
    recomputed = ser.certificate_to_dict(cert)
    for kind, key, field in (("zero claim on", "interval", "zero_intervals"),
                             ("rigidity claim at", "time", "rigidity_times"),
                             ("polynomial claim at", "time", "polynomial_claims")):
        for old, new in zip(claimed[field], recomputed[field]):
            name = f"{cert.subject} {kind} {old[key]}"
            changed = [f"{k} {old[k]} -> {new[k]}" for k in old if old[k] != new[k]]
            if changed:
                return cert, f"{name} does not recompute: {', '.join(changed)}"
            if new.get("verdict") == "violated" or new.get("satisfied") is False:
                return cert, f"{name} does not hold"
    ledgers = zip_longest(claimed["min_distance_ledger"], recomputed["min_distance_ledger"])
    for i, (old, new) in enumerate(ledgers, 1):
        if old != new:
            return cert, f"{cert.subject} ledger at stage {i} does not recompute: {old} -> {new}"
    return cert, None


def cmd_report(args, out: _Output) -> int:
    plan_dir = Path(args.plan_dir)
    plan = _read(plan_dir / "plan.json", ser.plan_summary_from_dict)
    certs, cert_lines, mismatch = [], [], None
    for side in "st":
        cert, problem = _recheck(plan_dir / f"spec_{side}.json", plan_dir / f"cert_{side}.json")
        mismatch = mismatch or problem  # every side is rechecked, even after a mismatch
        certs.append(cert)
        cert_lines.append(
            f"{cert.subject}: {len(cert.zero_intervals)} zero intervals, "
            f"{len(cert.rigidity_times)} rigidity times, "
            f"{len(cert.polynomial_claims)} polynomial claims, "
            f"ok={cert.ok}"
        )
        cert_lines += [f"{cert.subject} unverified: {note}" for note in cert.unverified_notes]
    summary = _here.pair_summary(plan.horizon, certs)
    if mismatch is None and plan != summary:
        mismatch = (f"plan.json claims n0 {plan.n_zero_threshold}, sound {plan.sound}; "
                    f"recomputed n0 {summary.n_zero_threshold}, sound {summary.sound}")
    lines = [
        f"horizon: {summary.horizon}",
        f"product correlations vanish for n >= {summary.n_zero_threshold}",
        f"sound: {summary.sound}",
        *cert_lines,
    ]
    if mismatch:
        lines.append(f"mismatch: {mismatch}")
    ok = summary.sound and mismatch is None
    out.emit(args.out, {"ok": ok, "summary": lines})
    print("\n".join(lines))
    if mismatch:
        print(f"report FAILED: {mismatch}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankpair", description=__doc__)
    parser.add_argument("--out-dir", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="generate and validate an interval schedule")
    p.add_argument("--growth", type=ser.rational, default="3",
                   help="geometric growth ratio (rational)")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out", default="schedule.json")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("plan", help="build and certify a transformation pair")
    p.add_argument("--schedule", default=None, help="schedule file (else generated)")
    p.add_argument("--growth", type=ser.rational, default="8")
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--generic-cuts", type=int, default=4)
    p.add_argument("--poly", default="rigidity",
                   help='"rigidity" or JSON {"coefficients": {"0": "1/2", ...}}')
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", help="recheck a certificate against its spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("correlate", help="exact correlation brackets over a lag range")
    p.add_argument("--spec", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", default="correlations.tsv")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("spectrum", help="spectral density estimate from a table")
    p.add_argument("--table", required=True)
    p.add_argument("--order", type=int, default=64, help="smoothing order")
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--exact", action="store_true",
                   help="evaluate the finite trigonometric polynomial directly")
    p.add_argument("--out", default="density.tsv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="sample the Gaussian system or Poisson suspension")
    p.add_argument("--kind", choices=("gaussian", "poisson"), required=True)
    p.add_argument("--table", default=None, help="covariance table (gaussian)")
    p.add_argument("--spec", default=None, help="spec file (poisson)")
    p.add_argument("--function", default=None, help="statistic file (poisson)")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lag-max", type=int, default=20)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--out", default="simulation.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lemma3", help="truncate a shift polynomial with an "
                                      "exact orthogonality cutoff")
    p.add_argument("--function", required=True)
    p.add_argument("--delta", type=ser.rational, required=True,
                   help="distance guarantee (rational)")
    p.add_argument("--out", default="truncation.json")
    p.set_defaults(func=cmd_lemma3)

    p = sub.add_parser("report", help="recheck and summarize a plan directory")
    p.add_argument("--plan-dir", required=True)
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = _Output(args)
        code = args.func(args, out)
        stem = Path(getattr(args, "out", args.command)).stem
        out.manifest.finish(out.dir / f"{stem}_manifest.json")
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ToleranceNotReached, PlanError, EscapeCapError, MemoryError) as exc:
        # Python raises running out of memory with an empty message
        print(f"{type(exc).__name__}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
