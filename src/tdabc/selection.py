"""Choosing one persistence interval and recovering a sub-complex from it.

The lifetime of an interval is truncated at the largest filtration value,
so immortal classes compete on the portion of the filtration they actually
span.  Ties always go to the interval born later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex
from .errors import EmptyIntervalSet, InvalidConfig
from .persistence import PersistenceInterval

SELECTORS = ("max", "rand", "avg")
EPSILON_MODES = ("birth", "death", "mid")
RECOVERY_MODES = ("sublevel", "lifespan")


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick an interval and turn it into a sub-complex."""

    selector: str = "max"
    epsilon_mode: str = "death"
    recovery: str = "sublevel"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.selector not in SELECTORS:
            raise InvalidConfig(f"selector must be one of {SELECTORS}")
        if self.epsilon_mode not in EPSILON_MODES:
            raise InvalidConfig(f"epsilon_mode must be one of {EPSILON_MODES}")
        if self.recovery not in RECOVERY_MODES:
            raise InvalidConfig(f"recovery must be one of {RECOVERY_MODES}")
        if self.rng_seed < 0:
            raise InvalidConfig("rng_seed must be non-negative")


def lifetime(d: PersistenceInterval, max_filtration: float) -> float:
    """Interval span with the death clamped to the filtration's end."""
    return min(d.death, max_filtration) - d.birth


def max_int(
    intervals: tuple[PersistenceInterval, ...], max_filtration: float
) -> PersistenceInterval:
    """The longest-lived interval; ties go to the later birth."""
    if not intervals:
        raise EmptyIntervalSet("no intervals to select from")
    return max(intervals, key=lambda d: (lifetime(d, max_filtration), d.birth))


def rand_int(
    intervals: tuple[PersistenceInterval, ...],
    max_filtration: float,
    rng: np.random.Generator,
) -> PersistenceInterval:
    """Uniform draw from the intervals living longer than the mean lifetime."""
    if not intervals:
        raise EmptyIntervalSet("no intervals to select from")
    spans = [lifetime(d, max_filtration) for d in intervals]
    mean = sum(spans) / len(spans)
    pool = [d for d, s in zip(intervals, spans) if s > mean]
    if not pool:
        pool = list(intervals)
    return pool[int(rng.integers(len(pool)))]


def avg_int(
    intervals: tuple[PersistenceInterval, ...], max_filtration: float
) -> PersistenceInterval:
    """The interval whose lifetime is closest to the mean; later birth wins ties."""
    if not intervals:
        raise EmptyIntervalSet("no intervals to select from")
    spans = [lifetime(d, max_filtration) for d in intervals]
    mean = sum(spans) / len(spans)
    return min(
        zip(intervals, spans), key=lambda pair: (abs(pair[1] - mean), -pair[0].birth)
    )[0]


def select(
    intervals: tuple[PersistenceInterval, ...],
    max_filtration: float,
    policy: SelectionPolicy,
    rng: np.random.Generator,
) -> PersistenceInterval:
    if policy.selector == "max":
        return max_int(intervals, max_filtration)
    if policy.selector == "rand":
        return rand_int(intervals, max_filtration, rng)
    return avg_int(intervals, max_filtration)


def interval_epsilon(
    d: PersistenceInterval, max_filtration: float, epsilon_mode: str
) -> float:
    death = min(d.death, max_filtration)
    if epsilon_mode == "birth":
        return d.birth
    if epsilon_mode == "death":
        return death
    return (d.birth + death) / 2.0


def recover(
    complex_: FilteredComplex, d: PersistenceInterval, policy: SelectionPolicy
) -> FilteredComplex:
    """Sub-complex induced by ``d`` under the policy's recovery mode."""
    maxf = complex_.max_value
    if policy.recovery == "sublevel":
        return complex_.subcomplex_at(interval_epsilon(d, maxf, policy.epsilon_mode))
    return complex_.band(d.birth, min(d.death, maxf))
