"""Freeze flag on memoized analysis products.

``as_csdf()`` and ``expand_to_hsdf()`` memoize their result per graph
version and hand the same object to every caller; the cache contract
documents the shared objects as frozen.  These tests pin the
enforcement: structural mutation of a memoized product raises instead
of silently corrupting other callers' results.
"""

import pytest

from repro.csdf import CSDFGraph, expand_to_hsdf
from repro.errors import GraphConstructionError
from repro.tpdf import random_consistent_graph


@pytest.fixture
def tpdf():
    return random_consistent_graph(4, extra_edges=1, seed=0)


class TestFreezeFlag:
    def test_fresh_graph_is_mutable(self):
        g = CSDFGraph("fresh")
        assert not g.frozen
        g.add_actor("a")  # no raise

    def test_freeze_rejects_add_actor_and_add_channel(self):
        g = CSDFGraph("g")
        g.add_actor("a")
        g.add_actor("b")
        g.freeze()
        assert g.frozen
        with pytest.raises(GraphConstructionError, match="frozen"):
            g.add_actor("c")
        with pytest.raises(GraphConstructionError, match="frozen"):
            g.add_channel("ab", "a", "b")

    def test_freeze_is_idempotent_and_chains(self):
        g = CSDFGraph("g")
        assert g.freeze() is g
        assert g.freeze() is g


class TestMemoizedProductsAreFrozen:
    def test_as_csdf_result_rejects_mutation(self, tpdf):
        view = tpdf.as_csdf()
        assert view.frozen
        with pytest.raises(GraphConstructionError, match="frozen"):
            view.add_actor("intruder")
        with pytest.raises(GraphConstructionError, match="frozen"):
            view.add_channel(None, "k0", "k1")

    def test_expand_to_hsdf_result_rejects_mutation(self, fig1):
        hsdf = expand_to_hsdf(fig1)
        assert hsdf.frozen
        with pytest.raises(GraphConstructionError, match="frozen"):
            hsdf.add_actor("intruder")

    def test_failed_mutation_leaves_product_intact(self, tpdf):
        from repro.csdf.analysis import repetition_vector

        view = tpdf.as_csdf()
        before = dict(repetition_vector(view))
        names = set(view.actors)
        with pytest.raises(GraphConstructionError):
            view.add_actor("intruder")
        assert set(view.actors) == names
        assert dict(repetition_vector(view)) == before
        assert tpdf.as_csdf() is view, "memoization undisturbed"

    def test_bind_of_frozen_graph_is_mutable(self, tpdf):
        bound = tpdf.as_csdf().bind({})
        assert not bound.frozen
        bound.add_actor("extra")  # a derived copy is the mutation path

    def test_analysis_caches_still_work_on_frozen_graphs(self, tpdf):
        from repro.cache import analysis_cache
        from repro.csdf import max_cycle_ratio

        view = tpdf.as_csdf()
        value = max_cycle_ratio(view)
        assert ("cores", ()) in analysis_cache(view)
        assert max_cycle_ratio(view) == value

    def test_parent_graph_stays_mutable(self, tpdf):
        tpdf.as_csdf()
        kernel = tpdf.add_kernel("late")  # parent is not frozen
        assert kernel.name in tpdf.kernels

    def test_channel_field_edits_on_frozen_graph_raise(self, tpdf):
        """Freeze covers channel-level mutation too: rate/token edits
        on a shared memoized product must not silently corrupt it."""
        view = tpdf.as_csdf()
        channel = next(iter(view.channels.values()))
        before = (channel.initial_tokens, channel.production)
        with pytest.raises(GraphConstructionError, match="frozen"):
            channel.initial_tokens = channel.initial_tokens + 1
        with pytest.raises(GraphConstructionError, match="frozen"):
            channel.production = [2, 2]
        with pytest.raises(GraphConstructionError, match="frozen"):
            channel.consumption = 3
        assert (channel.initial_tokens, channel.production) == before

    def test_channel_field_edit_on_live_graph_invalidates(self):
        from repro.cache import analysis_cache
        from repro.csdf.analysis import repetition_vector

        g = CSDFGraph("live")
        g.add_actor("a")
        g.add_actor("b")
        g.add_channel("ab", "a", "b", production=1, consumption=2)
        assert str(repetition_vector(g)["a"]) == "2"
        g.channel("ab").production = 2
        assert not analysis_cache(g)
        assert str(repetition_vector(g)["a"]) == "1"
