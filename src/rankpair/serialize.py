"""JSON / TSV round-trips for every on-disk artifact, through one codec.

``encode`` writes records as objects in field order, tuples as arrays
and rationals as exact ``"num/den"`` strings; ``decode`` reads them back
from the record's type hints, checks every field's type and names the
field path of any mismatch.  Coefficient tables and Walsh terms keep their
own shape and go through their normalising constructors.  All writes are
atomic, so a crashed run never leaves a half-written artifact behind.

Loading the codec loads no layer module: each artifact's decoder imports
its record's module on its first call, and the table functions import
``correlation`` when they run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import typing
from fractions import Fraction
from functools import cache
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .core import Field, record

if TYPE_CHECKING:
    from .correlation import CorrelationSequence


def _ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@record
class _WalshTerm:
    indices: list[int]
    coefficient: Fraction


# (module, class name) -> (field types of its file object, to that object,
# from it and the class); keyed by name so that the codec imports no layer
_SPECIAL = {
    ("rankpair.core", "LevelFunction"): (
        {"stage": int, "coefficients": dict[int, Fraction]},
        lambda f: {"stage": f.stage, "coefficients": dict(f.coefficients)},
        lambda d, cls: cls.from_dict(d["stage"], d["coefficients"]),
    ),
    ("rankpair.pairplan", "PolynomialSpec"): (
        {"coefficients": dict[int, Fraction]},
        lambda p: {"coefficients": dict(p.coefficients)},
        lambda d, cls: cls.from_dict(d["coefficients"]),
    ),
    ("rankpair.walsh", "WalshPolynomial"): (
        {"terms": list[_WalshTerm]},
        lambda p: {"terms": [{"indices": sorted(k), "coefficient": c} for k, c in p.terms]},
        lambda d, cls: cls.from_terms((t.indices, t.coefficient) for t in d["terms"]),
    ),
}


@cache
def _special(cls: type) -> tuple | None:
    """A record's entry of ``_SPECIAL``, or ``None``."""
    return _SPECIAL.get((cls.__module__, cls.__qualname__))


def encode(obj: Any) -> Any:
    """The JSON form of ``obj``; values JSON writes as they are pass through."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, Fraction):
        return _ratio(obj)
    fields = getattr(type(obj), "__record_fields__", None)
    if fields is not None:
        special = _special(type(obj))
        if special:
            return encode(special[1](obj))
        return {f.name: encode(getattr(obj, f.name)) for f in fields}
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


@cache
def _fields(cls) -> tuple[dict[str, Any], set[str]]:
    """A record's resolved field types, and the fields without a default."""
    hints = typing.get_type_hints(cls)
    fields = cls.__record_fields__
    return {f.name: hints[f.name] for f in fields}, {f.name for f in fields if f.required}


def _object(hints: dict[str, Any], required: set[str], value: Any, path: str) -> dict:
    """Decode a JSON object field by field; absent optional keys stay absent."""
    if not isinstance(value, dict):
        raise _mismatch(path, "an object", value)
    for key in value:
        if key not in hints:
            raise ValueError(f"{_at(path, key)}: unknown key")
    for name in hints:
        if name in required and name not in value:
            raise ValueError(f"{_at(path, name)}: missing")
    return {k: decode(hints[k], v, _at(path, k)) for k, v in value.items()}


_SCALARS = {int: "an integer", str: "a string", bool: "a boolean"}


def _mismatch(path: str, expected: str, value: Any) -> ValueError:
    shown = (f"an array of {len(value)}" if isinstance(value, list)
             else "an object" if isinstance(value, dict) else json.dumps(value))
    return ValueError(f"{path or 'top level'}: expected {expected}, got {shown}")


def _at(path: str, name: Any) -> str:
    return f"{path}.{name}" if path else str(name)


@cache
def _parts(tp: Any) -> tuple[Any, tuple]:
    """``typing.get_origin`` and ``get_args`` of a type; every type that
    ``decode`` reads is hashable: records, generic aliases, unions and
    scalars."""
    return typing.get_origin(tp), typing.get_args(tp)


def decode(tp: Any, value: Any, path: str = "") -> Any:
    """Build a ``tp`` from its JSON form ``value``, checking every type."""
    if hasattr(tp, "__record_fields__"):
        special = _special(tp)
        if special is None:
            return tp(**_object(*_fields(tp), value, path))
        shape, _, build = special
        parsed = _object(shape, set(shape), value, path)
        try:
            return build(parsed, tp)
        except ValueError as exc:
            raise ValueError(f"{path or 'top level'}: {exc}") from None
    origin, args = _parts(tp)
    if origin is typing.Union:
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return decode(inner, value, path)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise _mismatch(path, "an array", value)
        if origin is list or args[-1] is Ellipsis:
            items = [args[0]] * len(value)
        elif len(value) == len(args):
            items = args
        else:
            raise _mismatch(path, f"an array of {len(args)}", value)
        out = [decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value))]
        return out if origin is list else tuple(out)
    if origin is dict:
        if not isinstance(value, dict):
            raise _mismatch(path, "an object", value)
        key_type, value_type = args
        out = {}
        for k, v in value.items():
            try:
                key = key_type(k)
            except ValueError:
                raise ValueError(f"{_at(path, k)}: key is not {key_type.__name__}") from None
            out[key] = decode(value_type, v, _at(path, k))
        return out
    if tp is Fraction:
        if isinstance(value, str):
            try:
                return rational(value)
            except ValueError:
                pass
        elif isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise _mismatch(path, 'a rational ("num/den" or an integer)', value)
    if tp not in _SCALARS:
        raise TypeError(f"no JSON form for {tp!r}")
    if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise _mismatch(path, _SCALARS[tp], value)


def _decoder(module: str, name: str):
    """``decode`` into ``rankpair.<module>.<name>``, which is imported on
    the first call rather than when the codec loads."""
    def from_dict(value: Any, path: str = "") -> Any:
        return decode(getattr(import_module(f"{__package__}.{module}"), name), value, path)
    return from_dict


# Per-artifact names, one binding each; the benchmark's traced pass wraps them.
spec_to_dict = certificate_to_dict = schedule_to_dict = encode
level_function_to_dict = walsh_to_dict = encode
spec_from_dict = _decoder("core", "RankOneSpec")
certificate_from_dict = _decoder("pairplan", "ConstructionCertificate")
schedule_from_dict = _decoder("schedule", "IntervalSchedule")
plan_summary_from_dict = _decoder("pairplan", "PlanSummary")
level_function_from_dict = _decoder("core", "LevelFunction")
walsh_from_dict = _decoder("walsh", "WalshPolynomial")


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
    atomic_write_text(path, json.dumps(encode(obj), indent=2) + "\n")


def read_json(path: str | Path) -> Any:
    with open(path) as fh:
        return json.load(fh)


def correlation_table_to_tsv(table: CorrelationSequence) -> str:
    from .correlation import ZERO

    lines = [
        f"# subject\t{table.subject}",
        f"# norm_sq\t{_ratio(table.norm_sq)}",
        "n\tlower\tupper",
    ]
    for n in sorted(table.entries):
        lo, hi = bracket = table.entries[n]
        lines.append(f"{n}\t0/1\t0/1" if bracket is ZERO else f"{n}\t{_ratio(lo)}\t{_ratio(hi)}")
    return "\n".join(lines) + "\n"


def rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a rational") from None


def correlation_table_from_tsv(text: str) -> CorrelationSequence:
    """Parse a table; a malformed row, or a lag repeated with a different
    bracket, raises a ``ValueError`` naming its line.  A zero row is read as
    the shared ``ZERO``, as the engine writes it."""
    from .correlation import ZERO, CorrelationSequence

    subject = ""
    norm_sq = Fraction(0)
    entries: dict[int, tuple[Fraction, Fraction]] = {}
    for number, line in enumerate(text.splitlines(), 1):
        head, tab, tail = line.partition("\t")
        try:
            if tab and head in ("# subject", "# norm_sq", "n"):
                if head == "# subject":
                    subject = tail
                elif head == "# norm_sq":
                    norm_sq = rational(tail)
                continue
            if tail == "0/1\t0/1":
                bracket = ZERO
            elif line.strip():
                row = line.split("\t")
                if len(row) != 3:
                    raise ValueError(f"expected 3 tab-separated fields, got {len(row)}")
                bracket = (rational(row[1]), rational(row[2]))
            else:
                continue
            old = entries.setdefault(lag := int(head), bracket)
            if old is not bracket and old != bracket:
                raise ValueError(f"lag {lag} appears twice with different brackets")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return CorrelationSequence(entries=entries, norm_sq=norm_sq, subject=subject)


def _now() -> str:
    """The current UTC time in ISO-8601, to the microsecond."""
    seconds, nanos = divmod(time.time_ns(), 10**9)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{nanos // 1000:06d}+00:00"


def _platform() -> str:
    """``platform.platform()`` without the processor, whose lookup spawns
    ``uname -p`` on Linux; that string drops it when it equals the machine
    or reads unknown, as it does on common Linux systems.  Built from
    ``os.uname()`` and the C library's own version string, which is what
    ``platform.uname()`` and ``platform.libc_ver()`` read on glibc."""
    uname = os.uname()
    try:
        lib, version = os.confstr("CS_GNU_LIBC_VERSION").split(maxsplit=1)
    except (AttributeError, OSError, ValueError):  # no glibc
        lib = version = ""
    parts = (uname.sysname, uname.release, uname.machine, "with" if lib else "", lib + version)
    return "-".join(part for part in parts if part)


@record
class RunManifest:
    command: str
    arguments: dict[str, Any]
    outputs: list[str] = Field(default_factory=list)
    stats: dict[str, Any] = Field(default_factory=dict)  # what the run did, by command
    started_at: str = Field(default_factory=_now)
    finished_at: str = ""
    platform: str = _platform()

    def finish(self, path: str | Path) -> None:
        self.finished_at = _now()
        write_json(path, self)
