"""Independent output checker for the benchmark.

Everything here is recomputed from the files the CLI reads and writes,
with numpy and ``fractions.Fraction`` only; nothing is imported from
``rankpair``.  Occurrence positions come from the offset recursion of
the cut-and-stack recipe, correlation values from pair-difference counts
times the final level width.  Each ``check_*`` function returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

# Two-sided normal quantile for a miss probability of 4e-8 per check: a
# statistical check that can fail on an honest sample would make the
# failure count depend on the seed.
Z_CHECK = 5.5


@dataclass(frozen=True)
class Spec:
    base_height: int
    stages: tuple[tuple[int, tuple[int, ...]], ...]  # (cuts, spacers)

    @classmethod
    def load(cls, path) -> "Spec":
        d = json.loads(Path(path).read_text())
        return cls(
            int(d.get("base_height", 1)),
            tuple((int(s["cuts"]), tuple(int(x) for x in s["spacers"])) for s in d["stages"]),
        )

    def heights(self) -> list[int]:
        h = [self.base_height]
        for cuts, spacers in self.stages:
            h.append(cuts * h[-1] + sum(spacers))
        return h

    def widths(self) -> list[Fraction]:
        w = [Fraction(1)]
        for cuts, _ in self.stages:
            w.append(w[-1] / cuts)
        return w

    def prefix(self, n_stages: int) -> "Spec":
        return Spec(self.base_height, self.stages[:n_stages])


def occurrences(spec: Spec, stage: int, depth: int | None = None) -> np.ndarray:
    """Sorted positions of the stage-``stage`` base level in the depth tower."""
    depth = depth or len(spec.stages) + 1
    h = spec.heights()[stage - 1]
    pos = np.zeros(1, dtype=np.int64)
    for cuts, spacers in spec.stages[stage - 1 : depth - 1]:
        starts = np.concatenate(([0], np.cumsum([h + s for s in spacers[:-1]])))
        pos = (starts[:, None] + pos[None, :]).ravel()
        h = cuts * h + sum(spacers)
    return np.sort(pos)


@dataclass
class Tower:
    """Occurrences of one base level in a spec's deepest tower."""

    pos: np.ndarray
    height: int
    width: Fraction

    @classmethod
    def of(cls, spec: Spec, stage: int) -> "Tower":
        return cls(occurrences(spec, stage), spec.heights()[-1], spec.widths()[-1])

    def count(self, m: int) -> int:
        """Occurrence pairs ``(a, b)`` with ``b - a = m``."""
        m = abs(m)
        if m == 0:
            return len(self.pos)
        hit = np.searchsorted(self.pos, self.pos + m)
        hit = np.minimum(hit, len(self.pos) - 1)
        return int(np.count_nonzero(self.pos[hit] == self.pos + m))

    def counts_upto(self, hi: int) -> np.ndarray:
        """``count(m)`` for every ``m`` in ``[0, hi]``."""
        out = np.zeros(hi + 1, dtype=np.int64)
        out[0] = len(self.pos)
        for k in range(1, len(self.pos)):
            d = self.pos[k:] - self.pos[:-k]  # differences k occurrences apart
            d = d[d <= hi]
            if not d.size:  # they only grow with k
                break
            out += np.bincount(d, minlength=hi + 1)
        return out

    def top(self, m: int) -> int:
        """Occurrences within ``|m|`` of the tower top (none for ``m = 0``)."""
        if m == 0:
            return 0
        return len(self.pos) - int(np.searchsorted(self.pos, self.height - abs(m)))

    @property
    def top_gap(self) -> int:
        return self.height - int(self.pos[-1])

    def bracket(self, coeffs: dict[int, Fraction], n: int) -> tuple[Fraction, Fraction]:
        """Certified bracket of ``(f, T^n f)``: pair counts plus the top zone,
        summed over level pairs with their coefficient signs."""
        lo = hi = Fraction(0)
        for lf, cf in coeffs.items():
            for lg, cg in coeffs.items():
                m = n + lf - lg
                a = self.count(m) * self.width
                b = a + self.top(m) * self.width
                c = cf * cg
                lo += c * (a if c >= 0 else b)
                hi += c * (b if c >= 0 else a)
        return lo, hi


def load_function(path) -> tuple[int, dict[int, Fraction]]:
    d = json.loads(Path(path).read_text())
    return int(d["stage"]), {int(k): Fraction(v) for k, v in d["coefficients"].items()}


def norm_sq(spec: Spec, stage: int, coeffs: dict[int, Fraction]) -> Fraction:
    w = spec.widths()[stage - 1]
    return sum((c * c * w for c in coeffs.values()), Fraction(0))


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def read_table(path) -> tuple[dict[int, tuple[Fraction, Fraction]], Fraction]:
    entries: dict[int, tuple[Fraction, Fraction]] = {}
    norm = Fraction(0)
    parsed: dict[str, Fraction] = {}  # tables repeat few distinct values
    for line in Path(path).read_text().splitlines():
        if line.startswith("# norm_sq\t"):
            norm = Fraction(line.split("\t")[1])
        elif line and not line.startswith(("#", "n\t")):
            n, lo, hi = line.split("\t")
            for x in (lo, hi):
                if x not in parsed:
                    parsed[x] = Fraction(x)
            entries[int(n)] = (parsed[lo], parsed[hi])
    return entries, norm


def write_table(path, values: dict[int, Fraction], norm: Fraction, subject: str) -> None:
    """Write exact values in the CLI's correlation-table format."""
    lines = [f"# subject\t{subject}", f"# norm_sq\t{frac_str(norm)}", "n\tlower\tupper"]
    lines += [f"{n}\t{frac_str(v)}\t{frac_str(v)}" for n, v in sorted(values.items())]
    Path(path).write_text("\n".join(lines) + "\n")


def midpoints(entries, n_max: int) -> np.ndarray:
    return np.array([float((entries[n][0] + entries[n][1]) / 2) for n in range(n_max + 1)])


# -- certification: schedule, plan, verify, report ---------------------------

def check_schedule(path, horizon: int) -> list[str]:
    d = json.loads(Path(path).read_text())
    if d["horizon"] != horizon:
        return [f"schedule horizon {d['horizon']} != {horizon}"]
    spans = sorted(tuple(b[k]) for b in d["blocks"] for k in ("i", "j"))
    reach = 0
    for a, b in spans:
        if a > reach + 1:
            return [f"schedule leaves lag {reach + 1} uncovered"]
        reach = max(reach, b)
    return [] if reach >= horizon else [f"schedule covers only [1, {reach}]"]


def check_certificate(spec: Spec, cert: dict, horizon: int) -> list[str]:
    """Recompute every zero, rigidity and polynomial claim from pair counts."""
    problems = []
    stage, coeffs = int(cert["tracked"]["stage"]), {
        int(k): Fraction(v) for k, v in cert["tracked"]["coefficients"].items()
    }
    if coeffs != {0: Fraction(1)}:
        return [f"{cert['subject']}: tracked function is not a base indicator"]
    tower = Tower.of(spec, stage)
    if tower.top_gap <= horizon:
        problems.append(f"{cert['subject']}: top gap {tower.top_gap} <= horizon {horizon}")
    nsq = norm_sq(spec, stage, coeffs)
    counts = tower.counts_upto(horizon)
    for z in cert["zero_intervals"]:
        lo, hi = z["interval"]
        if list(z["checked"]) != [lo, min(hi, horizon)]:
            problems.append(f"{cert['subject']}: zero claim {z['interval']} checked as {z['checked']}")
        nz = np.flatnonzero(counts[lo : min(hi, horizon) + 1])
        if nz.size or z["verdict"] != "exact-zero":
            first = lo + int(nz[0]) if nz.size else None
            problems.append(f"{cert['subject']}: zero claim {z['interval']} fails at "
                            f"n={first} (verdict {z['verdict']})")
    for r in cert["rigidity_times"]:
        target = (1 - Fraction(1, r["cuts"])) * nsq
        lower = tower.bracket(coeffs, r["time"])[0]
        if (Fraction(r["target"]), Fraction(r["lower_bound"])) != (target, lower) \
                or not r["satisfied"] or lower < target:
            problems.append(f"{cert['subject']}: rigidity claim at {r['time']} does not recompute")
    heights = spec.heights()
    for p in cert["polynomial_claims"]:
        t = p["time"]
        if t not in heights[:-1]:
            problems.append(f"{cert['subject']}: polynomial time {t} is not a stage height")
            continue
        idx = heights.index(t)
        cuts, spacers = spec.stages[idx]
        poly = {int(z): Fraction(a) for z, a in p["poly"]["coefficients"].items()}
        pre = Tower.of(spec.prefix(idx), stage)
        rhs = sum((a * pre.count(-z) * pre.width for z, a in poly.items()), Fraction(0))
        lo, hi = tower.bracket(coeffs, t)
        deviation = max(abs(lo - rhs), abs(hi - rhs))
        slack = Fraction(2, cuts) + sum(
            (abs(a - Fraction(spacers.count(z), cuts)) for z, a in poly.items()), Fraction(0))
        bound = nsq * slack
        if (Fraction(p["deviation"]), Fraction(p["bound"])) != (deviation, bound) \
                or not p["satisfied"] or deviation > bound:
            problems.append(f"{cert['subject']}: polynomial claim at {t} does not recompute "
                            f"(deviation {deviation}, bound {bound})")
    return problems


def check_plan(out: Path, horizon: int) -> list[str]:
    plan = json.loads((out / "plan.json").read_text())
    problems = []
    if plan["horizon"] != horizon or plan["sound"] is not True:
        problems.append(f"plan.json reports horizon {plan['horizon']}, sound {plan['sound']}")
    counts = []
    for side in ("s", "t"):
        spec = Spec.load(out / f"spec_{side}.json")
        cert = json.loads((out / f"cert_{side}.json").read_text())
        problems += check_certificate(spec, cert, horizon)
        if not cert["zero_intervals"]:
            problems.append(f"cert_{side} has no zero claims")
        counts.append(Tower.of(spec, 1).counts_upto(horizon))
    n0 = plan["n_zero_threshold"]
    both = np.flatnonzero((counts[0] > 0) & (counts[1] > 0))
    both = both[both >= n0]
    if not 1 <= n0 <= horizon or both.size:
        problems.append(f"product nonzero at lag {both[:1].tolist()} >= n0 {n0}")
    return problems


def check_verify(out: Path, spec_path, cert_path, horizon: int) -> list[str]:
    report = json.loads((out / "verify_report.json").read_text())
    claimed = json.loads(Path(cert_path).read_text())
    problems = [] if report["ok"] is True else ["verify_report.json says not ok"]
    if report["recomputed"] != claimed:
        problems.append("verify recomputation differs from the certificate")
    return problems + check_certificate(Spec.load(spec_path), report["recomputed"], horizon)


def check_report(out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    problems = [] if report["ok"] is True else ["report.json says not ok"]
    for side in ("s", "t"):
        cert = json.loads((out / f"cert_{side}.json").read_text())
        want = (f"{cert['subject']}: {len(cert['zero_intervals'])} zero intervals, "
                f"{len(cert['rigidity_times'])} rigidity times, "
                f"{len(cert['polynomial_claims'])} polynomial claims, ok=True")
        if want not in report["summary"]:
            problems.append(f"report lacks line {want!r}")
    return problems


# -- correlation tables --------------------------------------------------------

def exact_table(spec: Spec, stage: int, coeffs: dict[int, Fraction], lags: range) -> dict[int, Fraction]:
    """Exact ``(f, T^n f)`` for ``n`` in ``lags`` (from 0), below the top gap."""
    tower = Tower.of(spec, stage)
    reach = lags[-1] + max(coeffs) - min(coeffs)
    if tower.top(reach):
        raise ValueError(f"lag {lags[-1]} reaches the top zone of this spec")
    counts = tower.counts_upto(reach)
    return {n: sum((cf * cg * int(counts[abs(n + lf - lg)]) * tower.width
                    for lf, cf in coeffs.items() for lg, cg in coeffs.items()), Fraction(0))
            for n in lags}


def check_indicator_table(path, spec_path, horizon: int) -> list[str]:
    spec = Spec.load(spec_path)
    tower = Tower.of(spec, 1)
    if tower.top_gap <= horizon:
        return [f"top gap {tower.top_gap} <= horizon {horizon}"]
    text = {c: frac_str(c * tower.width) for c in range(len(tower.pos) + 1)}
    counts = tower.counts_upto(horizon)
    rows = Path(path).read_text().splitlines()[3:]
    if len(rows) != horizon + 1:
        return [f"table has {len(rows)} rows, expected {horizon + 1}"]
    for n, row in enumerate(rows):
        v = text[int(counts[n])]
        if row != f"{n}\t{v}\t{v}":
            return [f"table row {row!r} != width x count {v} at n={n}"]
    return []


def check_dense_table(path, spec_path, function_path, lags: range) -> list[str]:
    spec = Spec.load(spec_path)
    stage, coeffs = load_function(function_path)
    tower = Tower.of(spec, stage)
    entries, norm = read_table(path)
    problems = []
    if sorted(entries) != list(lags):
        problems.append(f"table lags {min(entries)}..{max(entries)} != {lags}")
    if norm != norm_sq(spec, stage, coeffs):
        problems.append("table norm_sq differs from the exact norm")
    for n in lags:
        want = tower.bracket(coeffs, n)
        if entries.get(n) != want:
            problems.append(f"lag {n}: table {entries.get(n)} != recomputed {want}")
            break
    return problems


# -- lifts ---------------------------------------------------------------------

def _abs_bracket(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    if a <= 0 <= b:
        return Fraction(0), max(-a, b)
    return min(abs(a), abs(b)), max(abs(a), abs(b))


def check_spectrum(out: Path, table_path, order: int, grid: int) -> list[str]:
    entries, _ = read_table(table_path)
    rho = midpoints(entries, order - 1)
    data = np.loadtxt(out / "density.tsv", skiprows=1, ndmin=2)
    thetas = 2 * np.pi * np.arange(grid) / grid
    n = np.arange(1, order)
    direct = rho[0] + (2 * (1 - n / order) * rho[1:]) @ np.cos(np.outer(n, thetas))
    tol = 1e-9 * (1 + 2 * np.abs(rho).sum())
    problems = []
    if data.shape != (grid, 2) or np.abs(data[:, 0] - thetas).max() > 1e-9:
        return [f"density grid has shape {data.shape}"]
    if np.abs(data[:, 1] - direct).max() > tol:
        problems.append(f"density differs from the direct cosine sum by "
                        f"{np.abs(data[:, 1] - direct).max():.3g}")
    if abs(data[:, 1].mean() - rho[0]) > tol:
        problems.append(f"grid mean {data[:, 1].mean()} != rho(0) {rho[0]}")
    if data[:, 1].min() < -1e-9:
        problems.append(f"density minimum {data[:, 1].min()} is negative")
    summary = json.loads((out / "spectrum_summary.json").read_text())
    lags = range(min(entries), max(entries) + 1)
    absolute = Counter(_abs_bracket(*entries[k]) for k in lags)
    l1 = [sum((c * ab[i] for ab, c in absolute.items()), Fraction(0)) for i in (0, 1)]
    l2 = [sum((c * ab[i] ** 2 for ab, c in absolute.items()), Fraction(0)) for i in (0, 1)]
    support = [k for k in lags if _abs_bracket(*entries[k])[1]]
    if [Fraction(x) for x in summary["l1"]] != l1 or [Fraction(x) for x in summary["l2"]] != l2:
        problems.append("spectrum l1/l2 sums do not recompute")
    if summary["support"] != support:
        problems.append("spectrum support does not recompute")
    return problems


def check_gaussian(path, table_path, lag_max: int, samples: int) -> list[str]:
    """Each lag's sample-covariance error lies within ``Z_CHECK`` standard
    errors, from a Bartlett-type variance bound that the table determines."""
    entries, _ = read_table(table_path)
    top = 2 * lag_max  # paths have 2 * lag_max + 1 values
    rho = midpoints(entries, top)
    # rho at lags -2 top .. 2 top, zero past the path length
    padded = np.concatenate((np.zeros(top), rho[:0:-1], rho, np.zeros(top)))
    payload = json.loads(Path(path).read_text())
    errors = {int(k): v for k, v in payload["errors"].items()}
    if sorted(errors) != list(range(lag_max + 1)):
        return ["gaussian errors do not cover [0, lag-max]"]
    if payload["max_abs_error"] != max(errors.values()):
        return ["gaussian max_abs_error is not the largest error"]
    j = np.arange(-top, top + 1) + 2 * top
    for k in range(lag_max + 1):
        var = (padded[j] ** 2 + np.abs(padded[j + k] * padded[j - k])).sum() / (samples * (top + 1 - k))
        if errors[k] > Z_CHECK * math.sqrt(var) + 1e-12:
            return [f"gaussian lag {k}: error {errors[k]:.3g} beyond {Z_CHECK} x {math.sqrt(var):.3g}"]
    return []


def check_poisson(path, spec_path, steps: int, depth: int, samples: int) -> list[str]:
    """At the CLI's default intensity 1."""
    spec = Spec.load(spec_path)
    payload = json.loads(Path(path).read_text())
    tower = Tower.of(spec, 1)
    if tower.top_gap <= steps:
        return ["poisson lag reaches the top zone"]
    exact = tower.count(steps) * tower.width
    region = Tower(occurrences(spec, 1, depth), spec.heights()[depth - 1],
                   spec.widths()[depth - 1])
    problems = []
    if region.count(steps) * region.width != exact:
        problems.append("region-restricted value differs from the exact value")
    if [Fraction(x) for x in payload["exact_bracket"]] != [exact, exact]:
        problems.append(f"exact bracket {payload['exact_bracket']} != {exact}")
    est, se = payload["estimate"], payload["stderr"]
    half = 1.959963984540054 * se
    if max(abs(payload["ci"][0] - (est - half)), abs(payload["ci"][1] - (est + half))) > 1e-9 * (1 + abs(est)):
        problems.append("poisson CI is not estimate +- 1.96 stderr")
    lo, hi = est - Z_CHECK * se, est + Z_CHECK * se
    if not (lo <= exact and float(exact) <= hi):
        problems.append(f"poisson interval [{lo:.4g}, {hi:.4g}] misses exact {exact}")
    h = spec.heights()[depth - 1]
    p = steps / h
    points = samples * h * float(spec.widths()[depth - 1])
    if abs(payload["escape_fraction"] - p) > Z_CHECK * math.sqrt(p * (1 - p) / points) + 1e-12:
        problems.append(f"escape fraction {payload['escape_fraction']} far from {p}")
    return problems


def load_walsh(path) -> dict[frozenset, Fraction]:
    return walsh_terms(json.loads(Path(path).read_text())["terms"])


def walsh_terms(terms) -> dict[frozenset, Fraction]:
    acc: dict[frozenset, Fraction] = {}
    for t in terms:
        key = frozenset(t["indices"])
        acc[key] = acc.get(key, Fraction(0)) + Fraction(t["coefficient"])
    return {k: c for k, c in acc.items() if c}


def walsh_inner(p: dict, q: dict, shift: int) -> Fraction:
    return sum((c * q.get(frozenset(i + shift for i in k), 0) for k, c in p.items()), Fraction(0))


def check_lemma3(path, walsh_path, delta: Fraction) -> list[str]:
    f = load_walsh(walsh_path)
    out = json.loads(Path(path).read_text())
    kept = walsh_terms(out["f_prime"]["terms"])
    cutoff = out["cutoff"]
    problems = []
    if any(f.get(k) != c for k, c in kept.items()):
        problems.append("truncation holds a term the input does not")
    total = sum((c * c for c in f.values()), Fraction(0))
    kept_sq = sum((c * c for c in kept.values()), Fraction(0))
    tail = (total - kept_sq) / total
    if (Fraction(out["kept_norm_sq"]), Fraction(out["tail_frac"])) != (kept_sq, tail):
        problems.append("kept norm or tail fraction does not recompute")
    if not (1 - tail > (1 - delta * delta / 2) ** 2) or out["distance_below_delta"] is not True:
        problems.append("truncation is not within delta of the input")
    idx = [i for k in kept for i in k]
    spread = max(idx) - min(idx)
    if cutoff < spread:
        problems.append(f"cutoff {cutoff} below the index spread {spread}")
    # supports of copies shifted past the spread are disjoint; check the
    # shifts up to it and a stretch beyond exactly
    nonzero = [m for m in range(cutoff + 1, max(spread, cutoff) + 65)
               if walsh_inner(kept, kept, m) != 0]
    if nonzero or Fraction(out["residual_correlation"]) != 0:
        problems.append(f"shifted truncations not orthogonal at {nonzero[:3]}")
    return problems

