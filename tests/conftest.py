"""Shared fixtures and helpers for the test suite.

Provides deterministic builders for small point clouds, random filtered
complexes, and labeled association tables, plus a terminal-summary hook
that prints one PASS/FAIL line per acceptance criterion after the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from tdabc.complexes import FilteredComplex, proper_faces, simplex
from tdabc.classifier import AssociationTable
from tdabc.rips import RipsConfig, build_rips, pairwise_distances

# ---------------------------------------------------------------------------
# Acceptance-criteria registry: tests in test_acceptance.py record their
# verdicts here; the hook below prints one line per criterion at the end
# of the session regardless of output capturing.
# ---------------------------------------------------------------------------

CRITERIA: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    CRITERIA[number] = (description, passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        description, passed = CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d}: {verdict} - {description}")


# ---------------------------------------------------------------------------
# Deterministic geometry helpers
# ---------------------------------------------------------------------------

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def unit_square_complex(max_dim: int = 2) -> FilteredComplex:
    dist = pairwise_distances(UNIT_SQUARE)
    return build_rips(dist, RipsConfig(max_dim=max_dim, max_edge=float("inf")))


def circle_points(n: int = 20, radius: float = 1.0) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def tetrahedron_complex() -> FilteredComplex:
    """Full tetrahedron on vertices 2,3,4,5 with unit filtration values."""
    cx = FilteredComplex()
    verts = (2, 3, 4, 5)
    for v in verts:
        cx.insert((v,), 0.0)
    import itertools

    for q in (2, 3, 4):
        for combo in itertools.combinations(verts, q):
            cx.insert(combo, 1.0)
    return cx


def two_triangles_complex() -> FilteredComplex:
    """Two triangles glued along the edge (1, 2)."""
    cx = FilteredComplex()
    for v in (0, 1, 2, 3):
        cx.insert((v,), 0.0)
    for edge in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)):
        cx.insert(edge, 1.0)
    cx.insert((0, 1, 2), 1.0)
    cx.insert((1, 2, 3), 1.0)
    return cx


# ---------------------------------------------------------------------------
# Random builders (seeded, reproducible)
# ---------------------------------------------------------------------------


def random_cloud(rng: np.random.Generator, max_points: int = 8, ambient: int | None = None) -> np.ndarray:
    n = int(rng.integers(3, max_points + 1))
    d = ambient if ambient is not None else int(rng.integers(2, 4))
    return rng.normal(size=(n, d))


def random_rips(rng: np.random.Generator, max_points: int = 8, max_dim: int = 3) -> FilteredComplex:
    points = random_cloud(rng, max_points=max_points)
    dist = pairwise_distances(points)
    return build_rips(dist, RipsConfig(max_dim=max_dim, max_edge=float("inf")))


def random_monotone_complex(rng: np.random.Generator, max_vertices: int = 8, max_dim: int = 3) -> FilteredComplex:
    """Arbitrary (non-geometric) filtered complex with monotone values.

    Draws a handful of maximal simplices, closes them under faces, and
    assigns each simplex a value at least as large as all its facets.
    """
    n = int(rng.integers(2, max_vertices + 1))
    maximal = set()
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(1, min(max_dim + 1, n) + 1))
        combo = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        maximal.add(combo)
    members: set[tuple[int, ...]] = set()
    for m in maximal:
        s = simplex(m)
        members.add(s)
        members.update(proper_faces(s))
    values: dict[tuple[int, ...], float] = {}
    for s in sorted(members, key=lambda t: (len(t), t)):
        if len(s) == 1:
            values[s] = float(rng.uniform(0.0, 0.3))
        else:
            base = max(values[f] for f in proper_faces(s) if len(f) == len(s) - 1)
            bump = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
            values[s] = base + bump
    cx = FilteredComplex()
    for s in sorted(values, key=lambda t: (len(t), t)):
        cx.insert(s, values[s])
    return cx


def random_association(
    rng: np.random.Generator, complex_: FilteredComplex, n_classes: int = 3
) -> AssociationTable:
    """Random train/test split over the complex's vertices, at least one of each."""
    vertices = sorted({s[0] for s in complex_.simplices() if len(s) == 1})
    n = len(vertices)
    n_test = int(rng.integers(1, max(2, n // 2) + 1))
    test = set(rng.choice(vertices, size=n_test, replace=False).tolist())
    training = {int(v): int(rng.integers(0, n_classes)) for v in vertices if v not in test}
    return AssociationTable(training, frozenset(int(v) for v in test), n_classes)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
