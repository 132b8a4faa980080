"""Shared corpus fixtures for the diagnostics suites.

The same 8-shape x 25-seed random corpus the service/incremental
differential suites standardize on (see tests/service/conftest.py):
the generator emits only consistent, live graphs, so any ERROR
diagnostic on an unmodified corpus graph is a false alarm by
construction.
"""

from __future__ import annotations

import pytest

from repro.tpdf import random_consistent_graph

#: (actors, extra_edges, back_edges, parametric, with_control)
SHAPES = (
    (3, 1, 0, False, False),
    (4, 2, 1, False, False),
    (5, 2, 0, False, True),
    (5, 3, 2, False, False),
    (6, 3, 1, False, True),
    (6, 2, 0, True, False),
    (7, 3, 0, True, True),
    (8, 4, 2, False, False),
)
SEEDS_PER_SHAPE = 25


def build_graph(shape, seed):
    n, extra, cycles, parametric, control = shape
    return random_consistent_graph(
        n, extra_edges=extra, n_cycles=cycles, seed=seed,
        parametric=parametric, with_control=control,
    )


@pytest.fixture(scope="session")
def corpus_shapes():
    return SHAPES


@pytest.fixture(scope="session")
def seeds_per_shape():
    return SEEDS_PER_SHAPE


@pytest.fixture(scope="session")
def corpus_graphs():
    """(shape_index, seed) -> graph for the full 200-graph corpus."""
    return {
        (index, seed): build_graph(shape, seed)
        for index, shape in enumerate(SHAPES)
        for seed in range(SEEDS_PER_SHAPE)
    }
