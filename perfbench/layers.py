"""Traced in-process pass: the per-layer metrics.

Each command of the workload's chain is run through ``rankpair.cli.main``
inside this process, with the public functions of every layer replaced
by wrappers that record a span -- name, start, end, parent, command --
for each call.  The spans stay in memory and go to one trace file at the
end.  A layer's self time is its spans' durations minus the parts their
child spans cover.  The same chain also runs in process without the
wrappers; the difference between the two is the tracing overhead.

``cli.overhead_s`` is each command's untraced child-process wall time
minus the traced time of its library calls, so for every command the
per-layer self times plus its overhead add up to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import workloads


def _lags(args, kwargs, result):
    return len(result.entries)


def _values(args, kwargs, result):
    return int(result.paths.size)


def _points(args, kwargs, result):
    return int(result.levels.size)


# (module, attribute, span name, counter).  Functions the CLI imports by
# name are wrapped in ``rankpair.cli``; calls between library modules are
# wrapped where the caller looks them up.
TARGETS = [
    ("rankpair.cli", "generate_schedule", "schedule.generate_schedule", None),
    ("rankpair.cli", "plan_pair", "pairplan.plan_pair", None),
    ("rankpair.cli", "check_certificate", "pairplan.check_certificate", None),
    ("rankpair.pairplan", "check_certificate", "pairplan.check_certificate", None),
    ("rankpair.cli", "correlation_sequence", "correlation.correlation_sequence", _lags),
    ("rankpair.pairplan", "correlation_sequence", "correlation.correlation_sequence", _lags),
    *(("rankpair.serialize", name, "serialize.json_read", None)
      for name in ("read_json", "spec_from_dict", "certificate_from_dict",
                   "schedule_from_dict", "level_function_from_dict", "walsh_from_dict")),
    *(("rankpair.serialize", name, "serialize.json_write", None)
      for name in ("write_json", "spec_to_dict", "certificate_to_dict",
                   "schedule_to_dict", "walsh_to_dict")),
    ("rankpair.serialize", "correlation_table_to_tsv", "serialize.tsv_write", None),
    ("rankpair.serialize", "correlation_table_from_tsv", "serialize.tsv_read", None),
    ("rankpair.cli", "fejer_density", "spectral.density", None),
    ("rankpair.cli", "trig_polynomial_density", "spectral.density", None),
    ("rankpair.cli", "summability_report", "spectral.summability_report", None),
    ("rankpair.cli", "gaussian_sample", "suspension.gaussian_sample", _values),
    ("rankpair.suspension", "GaussianSample.sample_covariance", "suspension.sample_covariance", None),
    ("rankpair.cli", "poisson_sample_and_push", "suspension.poisson_sample_and_push", _points),
    ("rankpair.cli", "linear_statistic_covariance", "suspension.linear_statistic_covariance", None),
    ("rankpair.suspension", "occurrence_set", "core.occurrence_set", None),
    ("rankpair.cli", "lemma3_truncate", "walsh.lemma3_truncate", None),
    ("rankpair.walsh", "correlation_budget", "walsh.correlation_budget", None),
]
LAYERS = sorted({name for _, _, name, _ in TARGETS}) + ["correlation.engine"]
RATES = {  # metric -> (span whose counts and self time give it)
    "correlation.lags_per_s": "correlation.correlation_sequence",
    "suspension.gaussian_values_per_s": "suspension.gaussian_sample",
    "suspension.poisson_points_per_s": "suspension.poisson_sample_and_push",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    command: str
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.command = ""

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self.stack[-1] if self.stack else None,
                        self.command, time.perf_counter())
            self.spans.append(span)
            self.stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if counter:
                span.count = counter(args, kwargs, result)
            return result
        return traced

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (command, span name)."""
        out: dict[tuple[str, str], float] = {}
        for sp in self.spans:
            dur = sp.end - sp.start
            out[sp.command, sp.name] = out.get((sp.command, sp.name), 0.0) + dur
            if sp.parent is not None:
                parent = self.spans[sp.parent]
                out[sp.command, parent.name] -= dur
        return out


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    saved = []
    try:
        for module, dotted, name, counter in TARGETS:
            obj = importlib.import_module(module)
            *owners, attr = dotted.split(".")
            for owner in owners:
                obj = getattr(obj, owner)
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), counter))
        yield
    finally:
        for obj, attr, fn in reversed(saved):
            setattr(obj, attr, fn)


def run_chain(inp, out: Path, tracer: Tracer | None = None) -> dict[str, float]:
    """Run the chain through ``cli.main`` in process; seconds per command."""
    from rankpair import cli

    out.mkdir(parents=True, exist_ok=True)
    times = {}
    for cmd in workloads.chain(inp, out):
        if tracer:
            tracer.command = cmd.label
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(cmd.argv)
        times[cmd.label] = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"in-process {cmd.label} exited {code}: {sink.getvalue()[-300:]}")
    return times


def engine_probe(inp, out: Path, tracer: Tracer) -> None:
    """One ``correlation_sequence`` call for only the widest lag of the
    correlate command's range, which is almost pure engine."""
    from rankpair import serialize as ser
    from rankpair.correlation import correlation_sequence

    if inp.shape.dense:
        spec_path, f_path, n_max = inp.dir / "dense.json", inp.dir / "f4.json", inp.dense_lags[-1]
    else:
        spec_path, f_path, n_max = out / "spec_s.json", inp.dir / "f.json", inp.horizon
    spec = ser.spec_from_dict(ser.read_json(spec_path))
    f = ser.level_function_from_dict(ser.read_json(f_path))
    tracer.command = "engine"
    tracer.wrap("correlation.engine", correlation_sequence, _lags)(spec, f, [n_max])


@dataclass
class LayerResult:
    metrics: dict[str, tuple[float, str]]
    trace: dict


def measure(inp, where: Path, walls: dict[str, float], startup: float,
            seconds: float) -> LayerResult:
    """Alternate traced and untraced in-process passes while ``seconds``
    allow (at least one of each); report the traced pass that ran fastest."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        tracer = Tracer()
        with traced_layers(tracer):
            traced = run_chain(inp, where / "traced", tracer)
        engine_probe(inp, where / "traced", tracer)
        untraced = run_chain(inp, where / "untraced")
        passes.append((tracer, traced, untraced))
    tracer, traced, _ = min(passes, key=lambda p: sum(p[1].values()))
    untraced_total = min(sum(p[2].values()) for p in passes)

    self_times = tracer.self_times()
    layer = {name: 0.0 for name in LAYERS}
    counts = {name: 0 for name in LAYERS}
    for (_, name), secs in self_times.items():
        layer[name] += secs
    for sp in tracer.spans:
        counts[sp.name] += sp.count

    accounting = {}
    for label, wall in walls.items():
        lib = sum(sp.end - sp.start for sp in tracer.spans
                  if sp.command == label and sp.parent is None)
        own = {name: secs for (cmd, name), secs in self_times.items() if cmd == label}
        accounting[label] = {"wall_s": wall, "layers_s": own, "cli_overhead_s": wall - lib,
                             "sum_s": sum(own.values()) + wall - lib}

    metrics = {f"{name}_s": (secs, "s") for name, secs in layer.items()}
    for metric, name in RATES.items():
        metrics[metric] = (counts[name] / layer[name], "1/s")
    metrics["cli.startup_s"] = (startup, "s")
    metrics["cli.overhead_s"] = (sum(a["cli_overhead_s"] for a in accounting.values()), "s")
    metrics["trace.overhead_s"] = (sum(traced.values()) - untraced_total, "s")
    trace = {
        "spans": [asdict(sp) for sp in tracer.spans],
        "accounting": accounting,
        "in_process_traced_s": traced,
        "in_process_untraced_total_s": untraced_total,
        "passes": len(passes),
    }
    return LayerResult(metrics, trace)
