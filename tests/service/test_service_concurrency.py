"""Concurrency and result-cache properties of the resident service.

The load-bearing claims: identical concurrent submissions execute
**exactly once** (single-flight, spy-counted by the service's
``computed`` stat), distinct graphs never share a cache entry, the
LRU bound is respected, and an edited graph's resubmission gets a
fresh version-correct result (content addressing — the old key simply
stops being asked for).
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import EditSession, analyze
from repro.io import graph_from_payload, graph_to_payload
from repro.service import ServiceClient, serve_in_thread

from .conftest import small_csdf


def _fan_out(url: str, graph, count: int, **options):
    """``count`` threads, each its own client, all submitting the same
    request as close to simultaneously as possible."""
    results: list = [None] * count
    barrier = threading.Barrier(count)

    def run(index: int) -> None:
        client = ServiceClient(url)
        barrier.wait()
        results[index] = client.analyze(graph, **options)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert all(not t.is_alive() for t in threads)
    return results


class TestSingleFlight:

    def test_identical_concurrent_submissions_compute_once(self):
        graph = small_csdf(seed=21, actors=6)
        with serve_in_thread(workers=2) as handle:
            results = _fan_out(handle.url, graph, 8, iterations=4)
            stats = ServiceClient(handle.url).stats()["cache"]
        # exactly-once: one compute; everyone else coalesced or hit
        assert stats["computed"] == 1
        assert stats["coalesced"] + stats["hits"] == 7
        fingerprints = {report.fingerprint() for report in results}
        assert len(fingerprints) == 1
        assert fingerprints == {analyze(graph, iterations=4).fingerprint()}

    def test_sequential_resubmission_hits_cache(self):
        graph = small_csdf(seed=22)
        with serve_in_thread(workers=1) as handle:
            client = ServiceClient(handle.url)
            first = client.analyze(graph)
            second = client.analyze(graph)
            stats = client.stats()["cache"]
        assert first.fingerprint() == second.fingerprint()
        assert stats["computed"] == 1 and stats["hits"] == 1

    def test_no_cache_flag_bypasses_the_front_cache(self):
        graph = small_csdf(seed=23)
        with serve_in_thread(workers=1) as handle:
            client = ServiceClient(handle.url)
            warmup = client.analyze(graph)
            again = client.analyze(graph, no_cache=True)
            stats = client.stats()
        assert warmup.fingerprint() == again.fingerprint()
        # the no_cache request reached the pool instead of the cache
        assert stats["cache"]["hits"] == 0
        assert stats["pool"]["requests"] >= 2


class TestCacheKeying:

    def test_distinct_graphs_never_share_entries(self):
        graphs = [small_csdf(seed=seed) for seed in (31, 32, 33)]
        with serve_in_thread(workers=1) as handle:
            client = ServiceClient(handle.url)
            reports = [client.analyze(graph) for graph in graphs]
            reports += [client.analyze(graph) for graph in graphs]
            stats = client.stats()["cache"]
        assert stats["computed"] == 3  # one compute per distinct graph
        assert stats["hits"] == 3      # one hit per resubmission
        # and the entries really are distinct results
        assert len({report.fingerprint() for report in reports[:3]}) == 3

    def test_distinct_options_get_distinct_entries(self):
        """With the timed run asked for, ``iterations`` sizes it."""
        graph = small_csdf(seed=34)
        with serve_in_thread(workers=1) as handle:
            client = ServiceClient(handle.url)
            lo = client.analyze(graph, iterations=3, with_throughput=True)
            hi = client.analyze(graph, iterations=6, with_throughput=True)
            stats = client.stats()["cache"]
        assert stats["computed"] == 2
        assert lo.fingerprint() != hi.fingerprint()

    def test_iterations_share_an_entry_without_the_timed_run(self):
        """At default options no run reads ``iterations``: requests that
        differ only in it get one report, computed once."""
        graph = small_csdf(seed=34)
        with serve_in_thread(workers=1) as handle:
            client = ServiceClient(handle.url)
            lo = client.analyze(graph, iterations=3)
            hi = client.analyze(graph, iterations=6)
            stats = client.stats()["cache"]
        assert (stats["computed"], stats["hits"]) == (1, 1)
        assert lo.fingerprint() == hi.fingerprint()
        assert lo.timed is None

    def test_options_at_their_defaults_share_an_entry(self):
        """An option spelled at ``analyze()``'s default keys as if left
        out: the timed run with and without ``iterations=4``, and no
        options against ``with_throughput=False``, compute two reports."""
        graph = small_csdf(seed=35)
        with serve_in_thread(workers=1) as handle:
            client = ServiceClient(handle.url)
            timed = client.analyze(graph, with_throughput=True)
            timed4 = client.analyze(graph, with_throughput=True, iterations=4)
            plain = client.analyze(graph)
            untimed = client.analyze(graph, with_throughput=False)
            stats = client.stats()["cache"]
        assert (stats["computed"], stats["hits"]) == (2, 2)
        assert timed.fingerprint() == timed4.fingerprint()
        assert plain.fingerprint() == untimed.fingerprint()
        assert timed.timed is not None and plain.timed is None

    def test_eviction_respects_configured_bound(self):
        graphs = [small_csdf(seed=40 + seed) for seed in range(6)]
        with serve_in_thread(workers=1, cache_limit=4) as handle:
            client = ServiceClient(handle.url)
            for graph in graphs:
                client.analyze(graph)
            stats = client.stats()["cache"]
        assert stats["entries"] <= 4
        assert stats["evictions"] == 2  # 6 inserts into a 4-entry bound

    def test_evicted_entry_recomputes_identically(self):
        graphs = [small_csdf(seed=50 + seed) for seed in range(3)]
        with serve_in_thread(workers=1, cache_limit=2) as handle:
            client = ServiceClient(handle.url)
            first = client.analyze(graphs[0])
            for graph in graphs[1:]:
                client.analyze(graph)  # evicts graphs[0] (LRU)
            again = client.analyze(graphs[0])
            stats = client.stats()["cache"]
        assert stats["computed"] == 4  # 3 distinct + 1 recompute
        assert first.fingerprint() == again.fingerprint()


class TestEditFreshness:
    """Resubmission after an edit is version-correct by construction:
    the edited graph has a different content fingerprint, so it can
    never collide with the pre-edit cache entry."""

    def test_resubmission_after_edit_gets_fresh_result(self):
        graph = small_csdf(seed=60)
        actor = sorted(graph.actors)[0]
        edit = {"op": "set_exec_time", "actor": actor, "value": 17}

        # direct oracle on a decoded private clone
        oracle = EditSession(graph_from_payload(graph_to_payload(graph)),
                             None, iterations=3)
        oracle.analyze()
        oracle.apply(edit)
        edited_direct = oracle.analyze()

        with serve_in_thread(workers=2) as handle:
            client = ServiceClient(handle.url)
            before = client.analyze(graph, iterations=3)
            session = client.session(graph, iterations=3)
            old_key = session.graph_key
            edited = session.edits([edit])
            new_key = session.graph_key
            session.close()
            # resubmitting the *original* graph still hits its own
            # (unchanged, correct) entry ...
            original_again = client.analyze(graph, iterations=3)
            stats = client.stats()["cache"]

        assert new_key != old_key
        assert edited.fingerprint() == edited_direct.fingerprint()
        assert edited.fingerprint() != before.fingerprint()
        assert original_again.fingerprint() == before.fingerprint()
        assert stats["hits"] >= 1

    def test_concurrent_distinct_graphs_all_correct(self):
        graphs = [small_csdf(seed=70 + seed, actors=5) for seed in range(6)]
        direct = [analyze(graph, iterations=3) for graph in graphs]
        with serve_in_thread(workers=2) as handle:
            results: list = [None] * len(graphs)

            def run(index: int) -> None:
                client = ServiceClient(handle.url)
                results[index] = client.analyze(graphs[index], iterations=3)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(graphs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert all(not t.is_alive() for t in threads)
        for got, want in zip(results, direct):
            assert got.fingerprint() == want.fingerprint()
