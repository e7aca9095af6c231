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
from .persistence import Diagram, PersistenceInterval

SELECTORS = ("max", "rand", "avg")
EPSILON_MODES = ("birth", "death", "mid")
RECOVERY_MODES = ("sublevel", "lifespan")


@dataclass(frozen=True)
class SelectionPolicy:
    """How to pick an interval and turn it into a sub-complex.  ``epsilon_mode``
    acts only under ``sublevel`` recovery: ``lifespan`` keeps the interval's
    whole span, and ``classify_all`` takes its ball radius at the death."""

    selector: str = "max"
    epsilon_mode: str = "death"
    recovery: str = "sublevel"

    def __post_init__(self) -> None:
        if self.selector not in SELECTORS:
            raise InvalidConfig(f"selector must be one of {SELECTORS}")
        if self.epsilon_mode not in EPSILON_MODES:
            raise InvalidConfig(f"epsilon_mode must be one of {EPSILON_MODES}")
        if self.recovery not in RECOVERY_MODES:
            raise InvalidConfig(f"recovery must be one of {RECOVERY_MODES}")


def select(
    diagram: Diagram, policy: SelectionPolicy, rng: np.random.Generator
) -> PersistenceInterval:
    """The policy's pick among the diagram's candidates, from its cached spans.

    ``max`` takes the longest lifetime, ``avg`` the lifetime closest to the
    mean, and ``rand`` a uniform draw from the lifetimes above the mean (from
    all of them when none is above).
    """
    lifetimes, births, mean, _ = diagram.spans
    if not lifetimes.size:
        raise EmptyIntervalSet("no intervals to select from")
    if policy.selector == "rand":
        pool = np.flatnonzero(lifetimes > mean)
        if not pool.size:
            pool = np.arange(lifetimes.size)
        return diagram.candidates[int(pool[rng.integers(pool.size)])]
    if policy.selector == "max":
        tied = np.flatnonzero(lifetimes == lifetimes.max())
    else:
        gap = np.abs(lifetimes - mean)
        tied = np.flatnonzero(gap == gap.min())
    # Later birth wins a tie; the first of equal births after that.
    return diagram.candidates[int(tied[np.argmax(births[tied])])]


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
    return complex_.band(d.birth, interval_epsilon(d, maxf, "death"))
