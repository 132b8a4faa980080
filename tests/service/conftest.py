"""Shared fixtures of the resident-service suite.

The differential tests talk to one module-scoped service over real
HTTP; the fault and concurrency tests start their own (small, hooked)
instances.  ``REPRO_SERVICE_SEEDS`` trims the seeded corpus for fast
CI profiles (default: the full 25 seeds per shape = 200 graphs).
"""

from __future__ import annotations

import os

import pytest

from repro.tpdf import random_consistent_graph

#: (actors, extra_edges, back_edges, parametric, with_control) shapes;
#: parametric graphs get a concrete valuation so every stage runs.
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

SEEDS_PER_SHAPE = int(os.environ.get("REPRO_SERVICE_SEEDS", "25"))


def corpus_items():
    """The seeded corpus as (graph, bindings) pairs."""
    items = []
    for n, extra, cycles, parametric, control in SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            graph = random_consistent_graph(
                n, extra_edges=extra, n_cycles=cycles, seed=seed,
                parametric=parametric, with_control=control,
            )
            items.append((graph, {"p": 2} if parametric else None))
    return items


def small_csdf(seed: int = 3, actors: int = 5):
    """One small concrete CSDF graph (distinct per seed)."""
    return random_consistent_graph(
        actors, extra_edges=2, n_cycles=1, seed=seed
    ).as_csdf()


@pytest.fixture(scope="module")
def corpus():
    return corpus_items()


@pytest.fixture(scope="module")
def service_handle():
    """One resident service shared by a module's differential tests."""
    from repro.service import serve_in_thread

    with serve_in_thread(workers=2) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(service_handle):
    from repro.service import ServiceClient

    return ServiceClient(service_handle.url)
