"""JSON / TSV round-trips for every on-disk artifact.

Rationals are serialized as ``"num/den"`` strings so files stay exact and
diff-friendly; all writes go through an atomic replace so a crashed run
never leaves a half-written artifact behind.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import LevelFunction, RankOneSpec, StageSpec
from .correlation import CorrelationSequence
from .pairplan import (
    ConstructionCertificate,
    PolynomialClaim,
    PolynomialSpec,
    RigidityClaim,
    ZeroIntervalClaim,
)
from .schedule import IntervalSchedule, ScheduleBlock
from .walsh import WalshPolynomial


def fraction_to_str(x: Fraction | int) -> str:
    return f"{x.numerator}/{x.denominator}"


def fraction_from_str(s: str) -> Fraction:
    return Fraction(s)


def spec_to_dict(spec: RankOneSpec) -> dict[str, Any]:
    return {
        "base_height": spec.base_height,
        "stages": [
            {"cuts": st.cuts, "spacers": list(st.spacers)} for st in spec.stages
        ],
    }


def spec_from_dict(d: dict[str, Any]) -> RankOneSpec:
    return RankOneSpec(
        base_height=d.get("base_height", 1),
        stages=tuple(
            StageSpec(cuts=st["cuts"], spacers=tuple(st["spacers"]))
            for st in d["stages"]
        ),
    )


def level_function_to_dict(f: LevelFunction) -> dict[str, Any]:
    return {
        "stage": f.stage,
        "coefficients": {
            str(level): fraction_to_str(c) for level, c in f.coefficients
        },
    }


def level_function_from_dict(d: dict[str, Any]) -> LevelFunction:
    return LevelFunction.from_dict(
        d["stage"],
        {int(k): fraction_from_str(v) for k, v in d["coefficients"].items()},
    )


def schedule_to_dict(s: IntervalSchedule) -> dict[str, Any]:
    def iv(t):
        return list(t) if t is not None else None

    return {
        "horizon": s.horizon,
        "blocks": [
            {"i": iv(b.i), "j": iv(b.j), "i_tilde": iv(b.i_tilde), "j_tilde": iv(b.j_tilde)}
            for b in s.blocks
        ],
    }


def schedule_from_dict(d: dict[str, Any]) -> IntervalSchedule:
    def iv(t):
        return tuple(t) if t is not None else None

    return IntervalSchedule(
        blocks=tuple(
            ScheduleBlock(
                i=iv(b["i"]), j=iv(b["j"]),
                i_tilde=iv(b["i_tilde"]), j_tilde=iv(b["j_tilde"]),
            )
            for b in d["blocks"]
        ),
        horizon=d["horizon"],
    )


def polynomial_to_dict(p: PolynomialSpec) -> dict[str, Any]:
    return {
        "coefficients": {
            str(z): fraction_to_str(c) for z, c in p.coefficients
        }
    }


def polynomial_from_dict(d: dict[str, Any]) -> PolynomialSpec:
    return PolynomialSpec.from_dict(
        {int(k): fraction_from_str(v) for k, v in d["coefficients"].items()}
    )


def walsh_to_dict(p: WalshPolynomial) -> dict[str, Any]:
    return {
        "terms": [
            {"indices": sorted(k), "coefficient": fraction_to_str(c)}
            for k, c in p.terms
        ]
    }


def walsh_from_dict(d: dict[str, Any]) -> WalshPolynomial:
    return WalshPolynomial.from_terms(
        (t["indices"], fraction_from_str(t["coefficient"])) for t in d["terms"]
    )


def certificate_to_dict(cert: ConstructionCertificate) -> dict[str, Any]:
    return {
        "subject": cert.subject,
        "tracked": level_function_to_dict(cert.tracked),
        "zero_intervals": [
            {
                "interval": list(c.interval),
                "checked": list(c.checked),
                "verdict": c.verdict,
                "first_violation": c.first_violation,
            }
            for c in cert.zero_intervals
        ],
        "rigidity_times": [
            {
                "time": c.time,
                "cuts": c.cuts,
                "lower_bound": fraction_to_str(c.lower_bound),
                "target": fraction_to_str(c.target),
                "satisfied": c.satisfied,
            }
            for c in cert.rigidity_times
        ],
        "polynomial_claims": [
            {
                "time": c.time,
                "cuts": c.cuts,
                "poly": polynomial_to_dict(c.poly),
                "deviation": fraction_to_str(c.deviation),
                "bound": fraction_to_str(c.bound),
                "satisfied": c.satisfied,
            }
            for c in cert.polynomial_claims
        ],
        "min_distance_ledger": [list(t) for t in cert.min_distance_ledger],
        "skipped_budgets": [list(t) for t in cert.skipped_budgets],
        "unverified_notes": list(cert.unverified_notes),
    }


def certificate_from_dict(d: dict[str, Any]) -> ConstructionCertificate:
    return ConstructionCertificate(
        subject=d["subject"],
        tracked=level_function_from_dict(d["tracked"]),
        zero_intervals=[
            ZeroIntervalClaim(
                interval=tuple(c["interval"]),
                checked=tuple(c["checked"]),
                verdict=c["verdict"],
                first_violation=c["first_violation"],
            )
            for c in d["zero_intervals"]
        ],
        rigidity_times=[
            RigidityClaim(
                time=c["time"], cuts=c["cuts"],
                lower_bound=fraction_from_str(c["lower_bound"]),
                target=fraction_from_str(c["target"]),
                satisfied=c["satisfied"],
            )
            for c in d["rigidity_times"]
        ],
        polynomial_claims=[
            PolynomialClaim(
                time=c["time"], cuts=c["cuts"],
                poly=polynomial_from_dict(c["poly"]),
                deviation=fraction_from_str(c["deviation"]),
                bound=fraction_from_str(c["bound"]),
                satisfied=c["satisfied"],
            )
            for c in d["polynomial_claims"]
        ],
        min_distance_ledger=[tuple(t) for t in d["min_distance_ledger"]],
        skipped_budgets=[tuple(t) for t in d["skipped_budgets"]],
        unverified_notes=list(d["unverified_notes"]),
    )


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str | Path, obj: Any) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def read_json(path: str | Path) -> Any:
    with open(path) as fh:
        return json.load(fh)


def correlation_table_to_tsv(table: CorrelationSequence) -> str:
    lines = [
        f"# subject\t{table.subject}",
        f"# norm_sq\t{fraction_to_str(table.norm_sq)}",
        "n\tlower\tupper",
    ]
    for n in sorted(table.entries):
        lo, hi = table.entries[n]
        lines.append(f"{n}\t{fraction_to_str(lo)}\t{fraction_to_str(hi)}")
    return "\n".join(lines) + "\n"


def correlation_table_from_tsv(text: str) -> CorrelationSequence:
    subject = ""
    norm_sq = Fraction(0)
    entries: dict[int, tuple[Fraction, Fraction]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# subject\t"):
            subject = line.split("\t", 1)[1]
            continue
        if line.startswith("# norm_sq\t"):
            norm_sq = fraction_from_str(line.split("\t", 1)[1])
            continue
        if line.startswith("n\t"):
            continue
        n_s, lo_s, hi_s = line.split("\t")
        entries[int(n_s)] = (fraction_from_str(lo_s), fraction_from_str(hi_s))
    return CorrelationSequence(entries=entries, norm_sq=norm_sq, subject=subject)


@dataclass
class RunManifest:
    command: str
    arguments: dict[str, Any]
    outputs: list[str]
    started_at: str
    finished_at: str = ""
    platform: str = platform.platform()

    @classmethod
    def start(cls, command: str, arguments: dict[str, Any]) -> "RunManifest":
        return cls(
            command=command,
            arguments=arguments,
            outputs=[],
            started_at=datetime.now(timezone.utc).isoformat(),
        )

    def finish(self, path: str | Path) -> None:
        self.finished_at = datetime.now(timezone.utc).isoformat()
        write_json(path, {
            "command": self.command,
            "arguments": self.arguments,
            "outputs": self.outputs,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "platform": self.platform,
        })
