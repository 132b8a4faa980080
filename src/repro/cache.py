"""Per-graph memoization for the static analyses.

The analysis chain recomputes its expensive building blocks many times
over: one ``check_boundedness`` call solves the balance equations four
times (consistency, rate safety, liveness, local solutions), and every
MCR/buffer query re-derives the repetition vector and the HSDF
expansion.  This module gives each graph instance a small cache keyed
by the graph's *mutation version*: construction methods bump the
version, which atomically invalidates every memoized result.

Contract for cached values: they are shared — callers must treat
memoized graphs (``as_csdf()``, ``expand_to_hsdf()``) and mappings as
frozen.  All in-tree analyses only read them.

Negative results (inconsistent-rate errors) are cached too, so
``is_consistent`` probes on a bad graph stay cheap.

Binding-only edits
------------------
Interactive and service traffic is dominated by "same graph, small
delta" edits, so a bump says what *kind* of edit it was:
``"binding"`` for weight-only edits such as an execution-time change
that keeps the phase count, ``"structural"`` (the default) for
everything that can move rates, tokens or topology.  Each graph keeps
two counters: every bump advances the *version*, and a structural bump
also advances the *structure* counter.  Two consumers build on them:

* :func:`analysis_cache` **carries forward** entries whose key tag was
  registered via :func:`register_binding_insensitive` while the
  structure counter has not moved — the repetition vector, the rate
  table, the cyclic components and their core layer, and the greedy
  buffer schedule survive an execution-time edit instead of being
  recomputed.
* :func:`content_store` holds the graph's **cross-version** memos keyed
  by content fingerprints (each cyclic core's record): a stale entry is
  unreachable by construction because its key changed with the
  content, so the store never needs invalidating.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

from .errors import GraphConstructionError

_CACHE_ATTR = "_analysis_cache"
_VERSION_ATTR = "_analysis_version"
_STRUCTURE_ATTR = "_analysis_structure"
_FROZEN_ATTR = "_analysis_frozen"
_CONTENT_ATTR = "_analysis_content"

#: Entries a graph's :func:`content_store` keeps before evicting the oldest.
_CONTENT_LIMIT = 1024

#: Key tags (first tuple element) whose cached values do not depend on
#: execution times — safe to carry across binding-only version bumps.
_BINDING_INSENSITIVE_TAGS: set[str] = set()

_KINDS = ("binding", "structural")


def version_of(graph: Any) -> int:
    """The graph's current mutation version (0 for a fresh graph)."""
    return getattr(graph, _VERSION_ATTR, 0)


def register_binding_insensitive(tag: str) -> None:
    """Declare cache keys tagged ``tag`` (their first tuple element)
    independent of execution times, so :func:`analysis_cache` carries
    them across binding-only version bumps instead of discarding them.

    Only register results that are bit-for-bit reproducible from the
    rates, tokens and topology alone — the incremental differential
    suite (``tests/csdf/test_incremental.py``) asserts exactly that.
    """
    _BINDING_INSENSITIVE_TAGS.add(tag)


def bump_version(graph: Any, kind: str = "structural") -> None:
    """Invalidate cached analyses of ``graph`` (called by the graph
    classes' construction methods and field setters).

    ``kind`` is ``"binding"`` when the edit can only change
    execution-time *values* (phase counts, rates, tokens and topology
    untouched) and ``"structural"`` (the default) for everything else;
    callers unsure about an edit must use ``"structural"``.  Every bump
    advances the version; a structural bump also advances the structure
    counter, which ends the carry-forward of binding-insensitive
    entries.
    """
    ensure_mutable(graph)
    if kind not in _KINDS:
        raise ValueError(f"unknown mutation kind {kind!r}; pick one of {_KINDS}")
    setattr(graph, _VERSION_ATTR, version_of(graph) + 1)
    if kind == "structural":
        setattr(graph, _STRUCTURE_ATTR, getattr(graph, _STRUCTURE_ATTR, 0) + 1)


def freeze(graph: Any) -> Any:
    """Mark ``graph`` immutable: any later mutation (anything that
    would bump the version) raises instead of silently invalidating
    shared state.

    Used on memoized analysis products (``as_csdf()``,
    ``expand_to_hsdf()``): those objects are shared by every caller for
    the parent graph's current version, so structural edits would
    corrupt results for all of them.  Freezing turns that misuse into
    an immediate :class:`~repro.errors.GraphConstructionError`.
    Analysis caches keep working on frozen graphs — memoization is not
    a mutation.
    """
    setattr(graph, _FROZEN_ATTR, True)
    return graph


def is_frozen(graph: Any) -> bool:
    return bool(getattr(graph, _FROZEN_ATTR, False))


def ensure_mutable(graph: Any) -> None:
    """Raise when ``graph`` has been frozen (shared analysis product)."""
    if is_frozen(graph):
        raise GraphConstructionError(
            f"graph {getattr(graph, 'name', graph)!r} is frozen: it is a "
            f"memoized analysis product shared across callers; derive a "
            f"mutable copy (e.g. bind()) instead of mutating it"
        )


def analysis_cache(graph: Any) -> dict:
    """The live cache dict of ``graph`` for its current version.

    On a version change, entries whose key tag was registered
    binding-insensitive are carried forward when the structure counter
    still reads what it read when the cache was (re)built — every bump
    since was binding-only; everything else is dropped.
    """
    version = version_of(graph)
    entry = getattr(graph, _CACHE_ATTR, None)
    if entry is not None and entry[0] == version:
        return entry[1]
    structure = getattr(graph, _STRUCTURE_ATTR, 0)
    carried: dict = {}
    if entry is not None and entry[2] == structure:
        carried = {
            key: value
            for key, value in entry[1].items()
            if isinstance(key, tuple) and key
            and key[0] in _BINDING_INSENSITIVE_TAGS
        }
    setattr(graph, _CACHE_ATTR, (version, carried, structure))
    return carried


class ContentStore:
    """Bounded cross-version memo attached to a graph.

    Unlike :func:`analysis_cache`, entries survive version bumps — so
    keys MUST be content fingerprints (stale content is unreachable
    because its key changed with it), or the caller must revalidate the
    entry against the current version before trusting it.  Eviction is LRU and
    counted (:attr:`evictions`), so bounded consumers — the resident
    service's result cache and per-worker decode caches — can report
    cache pressure without wrapping the store.
    """

    __slots__ = ("_data", "limit", "evictions")

    def __init__(self, limit: int):
        self._data: OrderedDict = OrderedDict()
        self.limit = limit
        #: Entries dropped by the LRU bound since construction.
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.limit:
            self._data.popitem(last=False)
            self.evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key``'s entry (``default`` when absent).
        An explicit drop is not an eviction — the counter tracks only
        the LRU bound."""
        return self._data.pop(key, default)

    def clear(self) -> None:
        """Drop every entry (the eviction counter is kept)."""
        self._data.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


def content_store(graph: Any) -> ContentStore:
    """The graph's one cross-version :class:`ContentStore` (created on
    first use, holding up to ``_CONTENT_LIMIT`` entries; the same store
    is returned thereafter)."""
    store: ContentStore | None = getattr(graph, _CONTENT_ATTR, None)
    if store is None:
        store = ContentStore(_CONTENT_LIMIT)
        setattr(graph, _CONTENT_ATTR, store)
    return store


class _Raised:
    """Sentinel wrapping an exception so failures memoize as well."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def cached(graph: Any, key: Hashable, factory: Callable[[], Any]) -> Any:
    """Memoize ``factory()`` under ``key`` in the graph's cache.

    Exceptions raised by ``factory`` are cached and re-raised on
    subsequent hits (analysis verdicts are deterministic for a given
    graph version).
    """
    cache = analysis_cache(graph)
    if key in cache:
        value = cache[key]
        if isinstance(value, _Raised):
            # Dropped first, or every re-raise would prepend its frames
            # to the memoized error's traceback and keep them alive.
            raise value.error.with_traceback(None)
        return value
    try:
        value = factory()
    except Exception as error:
        cache[key] = _Raised(error)
        raise
    cache[key] = value
    return value


def bindings_key(bindings: Mapping | None) -> tuple:
    """Hashable view of a parameter valuation (order-insensitive).

    Unhashable binding values (lists, dicts, sets) are rejected eagerly
    with a :class:`TypeError` naming the offending parameter — they
    would otherwise fail deep inside a cache-dict lookup with no hint
    of which binding was malformed.

    >>> bindings_key({"q": 2, "p": 1})
    (('p', 1), ('q', 2))
    >>> bindings_key(None)
    ()
    """
    if not bindings:
        return ()
    items = []
    for name, value in bindings.items():
        try:
            hash(value)
        except TypeError:
            raise TypeError(
                f"binding {str(name)!r} has unhashable value {value!r} "
                f"(type {type(value).__name__}); parameter values must be "
                f"hashable scalars such as int"
            ) from None
        items.append((str(name), value))
    return tuple(sorted(items))


def domain_key(domain: Any) -> tuple:
    """Hashable view of a parameter *domain* (order-insensitive).

    Accepts a :class:`repro.csdf.parametric.ParamDomain` (anything with
    a ``key()`` method) or a plain mapping of ``name -> (lo, hi)``;
    used to key piecewise-MCR results per graph version, the same way
    :func:`bindings_key` keys concrete results.  Malformed bounds raise
    an eager :class:`TypeError` naming the parameter.

    >>> domain_key({"q": (2, 4), "p": (1, 8)})
    (('p', 1, 8), ('q', 2, 4))
    >>> domain_key(None)
    ()
    """
    if domain is None:
        return ()
    key = getattr(domain, "key", None)
    if callable(key):
        return key()
    items = []
    for name, bounds in dict(domain).items():
        try:
            lo, hi = bounds
            items.append((str(name), int(lo), int(hi)))
        except (TypeError, ValueError):
            raise TypeError(
                f"domain for {str(name)!r} must be an integer (lo, hi) "
                f"pair, got {bounds!r}"
            ) from None
    return tuple(sorted(items))
