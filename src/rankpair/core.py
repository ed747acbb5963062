"""Exact cutting-and-stacking towers.

A rank-one transformation is described stage by stage: cut the current
column into ``cuts`` vertical copies of equal width, put ``spacers[i]``
fresh levels on top of copy ``i`` (every copy gets an entry, including the
last one), and restack left to right.  All bookkeeping is exact: heights
are integers, level widths and measures are ``fractions.Fraction``.

Tower depths are 1-based: depth ``d`` is the tower obtained after applying
stages ``0 .. d-2``, so a spec with ``n`` stages defines towers at depths
``1 .. n+1``.  A finite spec only defines the transformation on the
constructed region; an orbit that runs off the deepest tower "escapes"
(a normal outcome, not an error).
"""

from __future__ import annotations

import operator
from fractions import Fraction

_MISSING = object()  # no default


class Field:
    """One field of a record: its default or its default factory."""

    __slots__ = ("name", "default", "default_factory")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING):
        self.name = ""
        self.default = default
        self.default_factory = default_factory

    @property
    def required(self) -> bool:
        return self.default is _MISSING and self.default_factory is _MISSING


def record(cls=None, /, *, frozen=False):
    """Make ``cls`` a record of the fields its own annotations declare, in
    declaration order: ``__init__`` binds each field by position in that
    order or by name, a required field possibly following a defaulted one,
    then calls ``__post_init__`` if the class has one; ``__eq__`` compares
    records of the same class field by field; ``__repr__`` shows every
    field.  A frozen record refuses assignment and deletion and hashes its
    fields; a mutable one is unhashable.  ``__record_fields__`` lists the
    fields.

    The methods are closures over the field list: no source is compiled
    for a class, so making one costs microseconds."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    fields = []
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, _MISSING)
        f = value if isinstance(value, Field) else Field(default=value)
        f.name = name
        if isinstance(value, Field):
            if f.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        fields.append(f)
    fields = tuple(fields)
    order = tuple(f.name for f in fields)
    names = frozenset(order)
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__
    get = operator.attrgetter(*order)
    key = get if len(order) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        given = dict(zip(order, args))
        given.update(kwargs)
        if len(given) < len(args) + len(kwargs) or not names.issuperset(kwargs):
            raise TypeError(f"{qualname}() cannot take {len(args)} positional arguments "
                            f"and the keywords {sorted(kwargs)}")
        for f in fields:
            if f.name not in given:
                if f.required:
                    raise TypeError(f"{qualname}() missing required argument {f.name!r}")
                given[f.name] = (f.default if f.default_factory is _MISSING
                                 else f.default_factory())
        for name in order:
            object.__setattr__(self, name, given[name])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in order)
        return f"{qualname}({inner})"

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {qualname}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {qualname}")

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__repr__ = __repr__
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    cls.__record_fields__ = fields
    return cls


@record(frozen=True)
class StageSpec:
    """One cut-and-stack step: ``cuts`` columns, one spacer count per column."""

    cuts: int
    spacers: tuple[int, ...]

    def issues(self) -> list[str]:
        out = []
        if self.cuts < 2:
            out.append(f"cuts < 2 (got {self.cuts})")
        if len(self.spacers) != self.cuts:
            out.append(f"spacers has {len(self.spacers)} entries, expected {self.cuts}")
        if any(s < 0 for s in self.spacers):
            out.append("negative spacer")
        return out

    def offsets(self, height: int) -> list[int]:
        """Start position of each column copy inside the next tower."""
        offs = [0]
        for i in range(self.cuts - 1):
            offs.append(offs[-1] + height + self.spacers[i])
        return offs


@record(frozen=True)
class RankOneSpec:
    """A finite cutting-and-stacking recipe."""

    base_height: int = 1
    stages: tuple[StageSpec, ...]

    @property
    def max_depth(self) -> int:
        return len(self.stages) + 1

    def heights(self) -> list[int]:
        h = [self.base_height]
        for st in self.stages:
            h.append(st.cuts * h[-1] + sum(st.spacers))
        return h

    def widths(self) -> list[Fraction]:
        w = [Fraction(1)]
        for st in self.stages:
            w.append(w[-1] / st.cuts)
        return w


@record(frozen=True)
class LevelFunction:
    """A rational linear combination of level indicators of one tower.

    ``coefficients`` maps a level index of the stage-``stage`` tower to its
    weight; unlisted levels carry weight zero.
    """

    stage: int
    coefficients: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, stage: int, coeffs: dict[int, Fraction]) -> "LevelFunction":
        items = tuple(sorted((l, Fraction(c)) for l, c in coeffs.items() if c != 0))
        return cls(stage, items)

    @classmethod
    def indicator(cls, stage: int, level: int = 0) -> "LevelFunction":
        return cls(stage, ((level, Fraction(1)),))

    @property
    def levels(self) -> list[int]:
        return [l for l, _ in self.coefficients]

    def norm_sq(self, spec: RankOneSpec) -> Fraction:
        w = spec.widths()[self.stage - 1]
        return sum((c * c * w for _, c in self.coefficients), Fraction(0))

    def issues(self, spec: RankOneSpec) -> list[str]:
        if not 1 <= self.stage <= spec.max_depth:
            return [f"stage {self.stage} outside [1, {spec.max_depth}]"]
        h = spec.heights()[self.stage - 1]
        out = [] if self.coefficients else ["empty level set"]
        return out + [f"level {l} outside [0, {h})" for l in self.levels if not 0 <= l < h]


def validate_spec(spec: RankOneSpec) -> list[str]:
    """Structural check; violations are reported, never raised."""
    issues = []
    if spec.base_height < 1:
        issues.append(f"base_height < 1 (got {spec.base_height})")
    for i, st in enumerate(spec.stages, start=1):
        issues.extend(f"stage {i}: {msg}" for msg in st.issues())
    return issues


def merge_intervals(intervals) -> list[tuple[int, int]]:
    """The union of closed integer intervals as sorted, disjoint bands, with
    adjacent ones joined; empty intervals drop out."""
    bands: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if lo > hi:
            continue
        if bands and lo <= bands[-1][1] + 1:
            bands[-1] = (bands[-1][0], max(hi, bands[-1][1]))
        else:
            bands.append((lo, hi))
    return bands


def occurrence_set(spec: RankOneSpec, level_stage: int, depth: int) -> tuple[int, ...]:
    """Exact positions of the stage-``level_stage`` base level at ``depth``,
    in ascending order: each stage's copy ``i + 1`` starts at least the
    stage's tower height past copy ``i``, and every position lies below
    that height.

    Materialises the full position list (its length is the product of the
    intervening cut counts); use the correlation module for deep towers.
    """
    if not 1 <= level_stage <= depth <= spec.max_depth:
        raise IndexError(
            f"need 1 <= level_stage <= depth <= {spec.max_depth}, "
            f"got level_stage={level_stage}, depth={depth}"
        )
    positions = [0]
    stages = spec.stages[level_stage - 1 : depth - 1]
    for st, h in zip(stages, spec.heights()[level_stage - 1:]):
        positions = [off + p for off in st.offsets(h) for p in positions]
    return tuple(positions)


class EscapeCapError(RuntimeError):
    """Too large a share of a push would escape the constructed region."""


class PlanError(RuntimeError):
    """The planner cannot build a sound pair for the schedule and policy."""


class ToleranceNotReached(RuntimeError):
    """The spec ran out of stages before the certified gap met the tolerance."""

    def __init__(self, achieved_gap: Fraction):
        super().__init__(f"spec exhausted; achieved gap {achieved_gap}")
        self.achieved_gap = achieved_gap
