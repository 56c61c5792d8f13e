"""Decay functions for time-aware item-based collaborative filtering.

A decay spec assigns a nonnegative weight w(t) to a rating of age t
seconds.  Six families are provided:

* ``Constant``    -- w(t) = 1 (plain IBCF, no time-awareness)
* ``Window``      -- w(t) = 1 for t <= T_w, else 0
* ``Logistic``    -- w(t) = 1 / (1 + exp(t/T_g - b))
* ``Exponential`` -- w(t) = exp(-t / T_e)
* ``Outraday``    -- flat within one day, power decay (t/86400)^-K_o after
* ``Piecewise``   -- power decay below T_s, plateau on [T_s, T_l),
                     power decay (t/T_l)^-K_l beyond T_l

All weights are dimensionless and non-increasing in age.  Specs are
immutable values.  Each family's ``weight`` maps an array of ages to an
array of weights; ``eval_decay`` is the scalar form of the same code.

Each family is defined once, as the dataclass below: ``family`` is its
name, and each field's metadata holds the parameter's spec-string key,
its value bound and its default sweep range.  ``FAMILIES`` lists them, and
spec parsing and formatting, sweep grids and sweep columns read from it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar

import numpy as np

SECONDS_PER_DAY = 86400

# The piecewise short branch (t/T_s)^-K_s diverges at t = 0.  Timestamps
# have one-second resolution, so ages below one second are clamped to 1 s.
PIECEWISE_AGE_FLOOR = 1.0


class DecayParseError(ValueError):
    """Raised when a decay spec string cannot be parsed."""


def _param(key: str, bound: str | None, sweep: tuple[float, float] | None = None, default=MISSING):
    """A spec parameter.  ``key`` names it in spec strings, ``bound`` is
    "positive", "nonnegative" or None, and ``sweep`` is its default
    (lo, hi) grid range, or None when the parameter is not swept."""
    return field(default=default, metadata={"key": key, "bound": bound, "sweep": sweep})


@dataclass(frozen=True)
class _Spec:
    """Base of the decay families; ``family`` names one in spec strings."""

    family: ClassVar[str]

    def __post_init__(self) -> None:
        for f in fields(self):
            key, bound, value = f.metadata["key"], f.metadata["bound"], getattr(self, f.name)
            # nan weights would rank every probe first; inf ones divide by zero
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            if (bound == "positive" and value <= 0) or (bound == "nonnegative" and value < 0):
                raise ValueError(f"{key} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class Constant(_Spec):
    """Uniform weighting; reproduces classic item-based CF."""

    family = "constant"

    def weight(self, age: np.ndarray) -> np.ndarray:
        return np.ones_like(age, dtype=float)


@dataclass(frozen=True)
class Window(_Spec):
    """Hard cutoff: full weight up to ``t_w`` seconds, zero after."""

    family = "window"
    t_w: float = _param("Tw", "positive", (100.0, 1e8))

    def weight(self, age: np.ndarray) -> np.ndarray:
        return np.where(age <= self.t_w, 1.0, 0.0)


@dataclass(frozen=True)
class Logistic(_Spec):
    """Sigmoid roll-off with time scale ``t_g`` and offset ``b``."""

    family = "logistic"
    t_g: float = _param("Tg", "positive", (1.0, 1e8))
    b: float = _param("b", None, default=5.0)

    def weight(self, age: np.ndarray) -> np.ndarray:
        # 1 / (1 + e^x), evaluated without overflow for large x; a tiny t_g
        # overflows x itself to inf, whose weight 0 is the exact limit
        with np.errstate(over="ignore"):
            x = age / self.t_g - self.b
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, z / (1.0 + z), 1.0 / (1.0 + z))


@dataclass(frozen=True)
class Exponential(_Spec):
    """Exponential forgetting with time scale ``t_e``."""

    family = "exp"
    t_e: float = _param("Te", "positive", (1.0, 1e8))

    def weight(self, age: np.ndarray) -> np.ndarray:
        # a tiny t_e overflows age / t_e to inf, whose weight 0 is the exact limit
        with np.errstate(over="ignore"):
            return np.exp(-age / self.t_e)


@dataclass(frozen=True)
class Outraday(_Spec):
    """Full weight within one day, then power decay with exponent ``k_o``.

    The one-day threshold is a fixed constant of the family, not a free
    parameter.
    """

    family = "outraday"
    k_o: float = _param("Ko", "nonnegative", (0.1, 2.0))

    def weight(self, age: np.ndarray) -> np.ndarray:
        return (np.maximum(age, SECONDS_PER_DAY) / SECONDS_PER_DAY) ** -self.k_o


@dataclass(frozen=True)
class Piecewise(_Spec):
    """Three-phase decay: short-term power decay below ``t_s``, a unit
    plateau on [``t_s``, ``t_l``), and long-term power decay beyond ``t_l``.

    Both branch junctions are continuous: the short branch equals 1 at
    ``t_s`` and the long branch equals 1 at ``t_l``.  Ages below one
    second are clamped (see ``PIECEWISE_AGE_FLOOR``).  The sweep ranges of
    ``t_s`` and ``t_l`` are also the trend fit's breakpoint ranges.
    """

    family = "piecewise"
    t_s: float = _param("Ts", "positive", (100.0, 1e5))
    t_l: float = _param("Tl", "positive", (5e5, 5e7))
    k_s: float = _param("Ks", "nonnegative", (0.1, 1.0))
    k_l: float = _param("Kl", "nonnegative", (0.1, 1.0))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.t_s > self.t_l:
            raise ValueError(f"Ts must not exceed Tl, got Ts={self.t_s!r} Tl={self.t_l!r}")
        # weights fall with age, so the largest one is at the age floor
        with np.errstate(over="ignore", divide="ignore"):
            peak = self.weight(np.array([PIECEWISE_AGE_FLOOR]))[0]
        if not np.isfinite(peak):
            raise ValueError(
                f"the weight at the {PIECEWISE_AGE_FLOOR:g} s age floor overflows: "
                f"Ts={self.t_s!r} Ks={self.k_s!r}"
            )

    def weight(self, age: np.ndarray) -> np.ndarray:
        t = np.maximum(age, PIECEWISE_AGE_FLOOR)
        # each factor is exactly 1 outside its own branch, as t_s <= t_l; a
        # tiny t_l overflows t / t_l to inf, whose factor 0 is the exact limit
        short = (np.minimum(t, self.t_s) / self.t_s) ** -self.k_s
        with np.errstate(over="ignore"):
            return short * (np.maximum(t, self.t_l) / self.t_l) ** -self.k_l


DecaySpec = Constant | Window | Logistic | Exponential | Outraday | Piecewise


def eval_decay(spec: DecaySpec, age: float) -> float:
    """Weight of a rating of ``age`` seconds under ``spec``.

    Raises ValueError for negative ages.
    """
    if age < 0:
        raise ValueError(f"age must be nonnegative, got {age!r}")
    return float(spec.weight(np.array([age], dtype=float))[0])


# The one table of decay families, in sweep and column order.  Spec
# strings, sweep grids and sweep table columns are all derived from it.
FAMILIES: dict[str, type[DecaySpec]] = {
    cls.family: cls for cls in (Constant, Window, Logistic, Exponential, Outraday, Piecewise)
}


def family_class(name: str) -> type[DecaySpec]:
    """The spec class of the family called ``name``."""
    if name not in FAMILIES:
        raise DecayParseError(f"unknown decay family {name!r} (known: {', '.join(FAMILIES)})")
    return FAMILIES[name]


def sweep_ranges(cls: type[DecaySpec]) -> dict[str, tuple[float, float]]:
    """Default (lo, hi) grid range of each swept parameter of a family."""
    return {f.name: f.metadata["sweep"] for f in fields(cls) if f.metadata["sweep"]}


# Textual spec syntax, e.g. "piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3".
# Family name, then comma-separated key=value parameters; keys are
# case-insensitive and parameters with a default may be left out.


def parse_decay(text: str) -> DecaySpec:
    """Parse a decay spec string.

    Raises DecayParseError naming the offending key or family on failure.
    """
    head, sep, rest = text.strip().partition(":")
    family = head.strip().lower()
    cls = family_class(family)
    params = {f.metadata["key"].lower(): f for f in fields(cls)}
    values: dict[str, float] = {}
    if sep and rest.strip():
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            key = key.strip().lower()
            if not eq:
                raise DecayParseError(f"expected key=value, got {part.strip()!r}")
            if key not in params:
                expected = ", ".join(f.metadata["key"] for f in params.values()) or "none"
                raise DecayParseError(
                    f"unknown parameter {key!r} for family {family!r} (expected: {expected})"
                )
            name, canonical = params[key].name, params[key].metadata["key"]
            if name in values:
                raise DecayParseError(f"duplicate parameter {canonical!r}")
            try:
                values[name] = float(val.strip())
            except ValueError:
                raise DecayParseError(
                    f"parameter {canonical!r} has non-numeric value {val.strip()!r}"
                ) from None
    for f in params.values():
        if f.name not in values and f.default is MISSING:
            raise DecayParseError(f"missing parameter {f.metadata['key']!r} for family {family!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise DecayParseError(str(exc)) from None


def _fmt(x: float) -> str:
    return format(x, ".12g")


def format_decay(spec: DecaySpec) -> str:
    """Canonical string form of a spec; round-trips through parse_decay."""
    if not isinstance(spec, _Spec):
        raise TypeError(f"not a decay spec: {spec!r}")
    params = ",".join(f"{f.metadata['key']}={_fmt(getattr(spec, f.name))}" for f in fields(spec))
    return f"{spec.family}:{params}" if params else spec.family
