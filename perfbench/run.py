#!/usr/bin/env python3
"""Benchmark of the rankpair CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  For about ``--seconds`` seconds, each run
repeats rounds: set the workload's inputs up from the seed, then run its
timed CLI commands (see ``workloads.py``), checking every command's
output with ``oracle.py``.  With ``--trace 0`` it prints the end-to-end
metrics, taken from untraced ``python -m rankpair.cli`` child processes;
with ``--trace 1`` it runs the whole command chain and prints the
per-layer metrics of a traced in-process pass (``layers.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the run's details, host
readings and trace go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One BLAS thread and a fixed hash seed in every process: with a second
# OpenBLAS thread on two cores the Gaussian step's timing follows the
# other tenants of the host rather than the code.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_ROUNDS = 3      # each round sets up afresh; timings are minima over the rounds
REFERENCE_S = 0.15  # time of reference.py on a quiet host; scaled times are relative to it
COMMAND_METRICS = ("plan_s", "verify_s", "correlate_s", "spectrum_s", "gaussian_s", "poisson_s")


def child(args: list[str], log: Path) -> tuple[float, float, int]:
    """Run one child process; return wall seconds, peak RSS in MB (this
    child's own, from ``wait4``) and the exit code."""
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    env.pop("RANKPAIR_OUT", None)
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def cli(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one ``rankpair`` command."""
    return child([sys.executable, "-m", "rankpair.cli", *argv], log)


def reference(log: Path) -> float:
    """Wall seconds of the fixed reference work (``reference.py``)."""
    wall, _, code = child([sys.executable, str(BENCH / "reference.py")], log)
    if code != 0:
        raise RuntimeError(f"reference work exited {code}; see {log}")
    return wall


class Tally:
    """Operations attempted and failed, and output checks that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # failed operations and wrong outputs
        self.wrong = 0                  # outputs of successful commands that failed their check

    def run(self, cmd, log_dir: Path) -> tuple[float, float]:
        """One operation: the command and its output check."""
        self.attempted += 1
        wall, rss, code = cli(cmd.argv, log_dir / f"{cmd.label}.log")
        if code != 0:
            self.failed += 1
            self.problems.append(f"{cmd.label}: exit code {code}")
            return wall, rss
        try:
            found = cmd.check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"check raised {exc!r}"]
        self.problems += [f"{cmd.label}: {p}" for p in found]
        self.wrong += bool(found)
        return wall, rss


def versions() -> dict:
    import numpy

    found = {"python": platform.python_version(), "numpy": numpy.__version__}
    try:
        found["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return found


def host_reading() -> dict:
    """Cumulative steal time and load average, to explain a noisy run."""
    reading = {"time": time.time(), "load1": os.getloadavg()[0], "steal_s": None}
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        reading["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return reading


def set_up(workload: str, seed: int, where: Path, out: Path, tally: Tally, full: bool):
    """Make the inputs, run one warm-up command and, unless the whole chain
    follows, the workload's set-up commands.  Returns the inputs and the
    set-up seconds, output checks excluded."""
    start = time.perf_counter()
    inp = workloads.make_inputs(workload, seed, where)
    secs = time.perf_counter() - start
    tally.attempted += 1
    wall, _, code = cli(["--help"], where / "warmup.log")
    secs += wall
    if code != 0:
        tally.failed += 1
        tally.problems.append(f"warm-up: exit code {code}")
    for cmd in workloads.chain(inp, out):
        if not full and cmd.label in inp.shape.setup:
            secs += tally.run(cmd, out)[0]
    return inp, secs


def run_rounds(workload: str, seed: int, run_dir: Path, seconds: float, tally: Tally,
               full: bool = False, min_rounds: int = MIN_ROUNDS):
    """Set up afresh and run the timed commands (``full``: the whole chain),
    round after round, until another round would overrun ``seconds``.
    Unless ``full``, the reference work runs before each timed command.
    Returns the set-up seconds, the reference seconds and, per round, each
    command's metric name, wall seconds and peak RSS."""
    setups, refs, rounds = [], [], []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        out = run_dir / f"round{k}"
        out.mkdir()
        inp, secs = set_up(workload, seed, run_dir / f"setup{k}", out, tally, full)
        setups.append(secs)
        rnd = {}
        for cmd in workloads.chain(inp, out):
            if full or cmd.label in inp.shape.timed:
                if not full:
                    refs.append(reference(out / f"reference-{cmd.label}.log"))
                rnd[cmd.label] = (cmd.metric, *tally.run(cmd, out))
        rounds.append(rnd)
        if k:  # keep the last round's files only
            shutil.rmtree(run_dir / f"setup{k - 1}")
            shutil.rmtree(run_dir / f"round{k - 1}")
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return setups, refs, rounds


def fastest(rounds: list[dict]) -> dict[str, float]:
    """Each command's minimum wall time over the rounds."""
    return {label: min(r[label][1] for r in rounds) for label in rounds[0]}


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path, tally: Tally):
    setups, refs, rounds = run_rounds(workload, seed, run_dir, seconds, tally)
    # The host's speed drifts by up to 2x over tens of seconds, alike for
    # the commands and the reference work; scaling by the reference's
    # fastest time in this run takes most of that drift out of the
    # pipeline.  Set-up, mostly interpreter start-up, does not follow the
    # reference, so it stays a plain wall time.
    scale = REFERENCE_S / min(refs)
    pipeline_wall = sum(fastest(rounds).values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pipeline_s": (pipeline_wall * scale, "s"),
        "peak_rss_mb": (statistics.median(max(rss for *_, rss in r.values()) for r in rounds), "MB"),
    }
    details = {"pipeline_wall_s": pipeline_wall, "scale": scale,
               "setup_s": setups, "reference_s": refs, "rounds": rounds}
    return metrics, details


def per_layer(workload: str, seed: int, seconds: float, run_dir: Path, tally: Tally):
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    startup = min(cli(["--help"], run_dir / "startup.log")[0] for _ in range(5))
    start = time.perf_counter()
    _, _, rounds = run_rounds(workload, seed, run_dir, seconds / 3, tally, full=True, min_rounds=2)
    walls = fastest(rounds)
    inp = workloads.make_inputs(workload, seed, run_dir / "setup-inproc")
    remaining = seconds - (time.perf_counter() - start)
    result = layers.measure(inp, run_dir / "inproc", walls, startup, remaining)
    for metric in COMMAND_METRICS:
        wall = sum(w for label, w in walls.items() if rounds[0][label][0] == metric)
        result.metrics[f"command.{metric}"] = (wall, "s")
    (run_dir / "trace.json").write_text(json.dumps(result.trace, indent=1) + "\n")
    return result.metrics, {"rounds": rounds, "accounting": result.trace["accounting"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rankpair" / "cli.py").is_file():
        print(f"error: no rankpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    before = host_reading()
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(args.workload, args.seed, args.seconds, run_dir, tally)
    after = host_reading()
    host = {
        "nproc": os.cpu_count(),
        "load1": [before["load1"], after["load1"]],
        "steal_s": (after["steal_s"] - before["steal_s"]) if before["steal_s"] is not None else None,
        "wall_s": after["time"] - before["time"],
        **versions(),
    }
    record = {"args": vars(args), "host": host, "problems": tally.problems,
              "metrics": metrics, **details}
    (run_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in tally.problems[:20]:
        print(f"problem: {p}")
    print(f"host: {json.dumps(host)}  details: {run_dir.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # re-execute in place, so numpy loads under the pinned settings
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, str(BENCH))
    import workloads  # noqa: E402  (needs the pinned environment first)

    sys.exit(main())
