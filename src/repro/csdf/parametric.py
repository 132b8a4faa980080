"""Parametric (symbolic) maximum cycle ratio.

:func:`repro.csdf.mcr.max_cycle_ratio` answers "what is the steady-state
period at *this* parameter valuation"; this module answers the question
for a whole **domain** of valuations at once.  The result is a
:class:`PiecewiseMCR`: a finite set of symbolic candidate ratios
(:class:`~repro.symbolic.rational.Rat` in the graph parameters) together
with an exact partition of the domain into box regions on which one
candidate attains the maximum.  One build gives the exact MCR over the
whole domain, equal to Howard at every point; evaluating a binding
afterwards is a handful of exact polynomial evaluations.

How it works
------------
Contract every actor's firings in the HSDF expansion to a single node
and each HSDF cycle projects to a closed walk of the CSDF graph.  Every
edge of a closed walk lies inside one strongly connected component, so
each HSDF cycle is one of exactly two kinds:

* the **serialization ring** of a single actor ``a`` — its ratio is the
  actor's per-iteration work over the ring's one token,

  .. math:: R_a(p) = q_a(p) \\cdot \\bar e_a,

  with ``q_a`` the (symbolic) repetition count and ``\\bar e_a`` the
  mean phase execution time: an exact polynomial in the parameters;

* a cycle inside the sub-expansion of a **nontrivial SCC** (actors on
  directed cycles, including self-loop channels).  When that cyclic
  core has *binding-independent structure* — constant rates on its
  channels and constant repetition counts for its actors — the
  sub-expansion is the same finite weighted graph at every valuation.
  It is built by the concrete solver's own event-graph builder
  (:func:`repro.csdf.mcr._event_graph`, on the cores
  :func:`~repro.csdf.schedule.cyclic_components` finds, sorted as the
  concrete solver sorts them), and one :func:`~repro.csdf.mcr.howard`
  run, exact in integers, yields its maximum cycle ratio as a single
  exact rational constant.

The parametric MCR is then the exact upper envelope of finitely many
candidates.  Graphs whose cyclic core itself changes shape with the
parameters fall outside the supported class and raise
:class:`~repro.errors.ParametricMCRError` (the concrete solver keeps
working for them, one binding at a time).  Acyclic graphs — every
pipeline application in the paper — are always supported.

Exactness
---------
All candidate algebra is exact (:class:`~fractions.Fraction`
coefficients), and so are the concrete solver's ratios.  ``evaluate``
returns the exact rational MCR; ``evaluate_float`` is its float, which
equals :func:`max_cycle_ratio` bit for bit (the differential suite
``tests/csdf/test_parametric_mcr.py`` asserts equality at hundreds of
random bindings).

Example
-------
>>> from repro.csdf import CSDFGraph
>>> from repro.csdf.parametric import ParamDomain, parametric_mcr
>>> from repro.symbolic import Param
>>> p = Param("p")
>>> g = CSDFGraph("pipe")
>>> _ = g.add_actor("src", exec_time=3)
>>> _ = g.add_actor("snk", exec_time=2)
>>> _ = g.add_channel("c", "src", "snk", production=p, consumption=1)
>>> pw = parametric_mcr(g, ParamDomain({"p": (1, 8)}))
>>> print(pw.describe())  # exact crossover between the rings at p = 2
parametric MCR of 'pipe' over p=1..8: 2 candidate(s), 2 region(s)
  [0] ring:src = 3
  [1] ring:snk = 2*p
  p=1..1 -> ring:src
  p=2..8 -> ring:snk
>>> pw.evaluate({"p": 5})
Fraction(10, 1)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from ..cache import cached, domain_key
from ..errors import AnalysisError, ParametricMCRError
from ..symbolic import Poly, Rat, normalize_bindings
from .analysis import repetition_vector
from .graph import CSDFGraph
from .mcr import _event_graph, _firing_times, _solve_core, max_cycle_ratio
from .schedule import cyclic_components

#: A box: tuple of (parameter name, inclusive lo, inclusive hi),
#: sorted by name.
Box = tuple[tuple[str, int, int], ...]

DomainLike = Union["ParamDomain", Mapping, Iterable, str, None]


class ParamDomain:
    """An integer box domain: each parameter ranges over ``lo..hi``.

    ``lo`` must be at least 1 (parameters are strictly positive
    integers); ``hi < lo`` declares the domain **empty**.  A domain
    with no parameters is the single empty valuation — the right shape
    for concrete graphs.

    >>> d = ParamDomain({"p": (1, 8), "q": (2, 4)})
    >>> str(d)
    'p=1..8, q=2..4'
    >>> d.size
    24
    >>> d.contains({"p": 3, "q": 2})
    True
    >>> ParamDomain.parse(["p=1..8", "q=3"]).ranges
    {'p': (1, 8), 'q': (3, 3)}
    """

    __slots__ = ("_ranges",)

    def __init__(self, ranges: Mapping | None = None):
        normalized: dict[str, tuple[int, int]] = {}
        for key, bounds in (ranges or {}).items():
            name = getattr(key, "name", None) or str(key)
            if isinstance(bounds, int):
                lo = hi = bounds
            else:
                lo, hi = bounds
            lo, hi = int(lo), int(hi)
            if lo < 1:
                raise ParametricMCRError(
                    f"parameter {name!r}: lower bound must be >= 1, got {lo}"
                )
            normalized[name] = (lo, hi)
        self._ranges = dict(sorted(normalized.items()))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(value: DomainLike) -> "ParamDomain":
        """Coerce domains, mappings and ``name=lo..hi`` spec lists."""
        if isinstance(value, ParamDomain):
            return value
        if value is None:
            return ParamDomain()
        if isinstance(value, Mapping):
            return ParamDomain(value)
        return ParamDomain.parse(value)

    @staticmethod
    def parse(specs: Iterable[str] | str) -> "ParamDomain":
        """Parse ``"name=lo..hi"`` (or ``"name=value"``) specs — the
        grammar of the ``analyze --param`` CLI flag."""
        if isinstance(specs, str):
            specs = [specs]
        ranges: dict[str, tuple[int, int]] = {}
        for spec in specs:
            if "=" not in spec:
                raise ParametricMCRError(
                    f"domain spec {spec!r}: expected name=lo..hi or name=value"
                )
            name, _, text = spec.partition("=")
            name = name.strip()
            text = text.strip()
            try:
                if ".." in text:
                    lo_text, _, hi_text = text.partition("..")
                    lo, hi = int(lo_text), int(hi_text)
                else:
                    lo = hi = int(text)
            except ValueError as exc:
                raise ParametricMCRError(
                    f"domain spec {spec!r}: bounds must be integers"
                ) from exc
            ranges[name] = (lo, hi)
        return ParamDomain(ranges)

    # -- views ----------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._ranges)

    @property
    def ranges(self) -> dict[str, tuple[int, int]]:
        return dict(self._ranges)

    @property
    def is_empty(self) -> bool:
        """True when some range is empty (``hi < lo``)."""
        return any(hi < lo for lo, hi in self._ranges.values())

    @property
    def size(self) -> int:
        """Number of integer valuations in the box (1 for no params)."""
        total = 1
        for lo, hi in self._ranges.values():
            total *= max(0, hi - lo + 1)
        return total

    def contains(self, bindings: Mapping) -> bool:
        """True when ``bindings`` assigns an in-range integer to every
        domain parameter (extra bindings are ignored)."""
        named = normalize_bindings(bindings)
        for name, (lo, hi) in self._ranges.items():
            value = named.get(name)
            if value is None or value.denominator != 1:
                return False
            if not lo <= value <= hi:
                return False
        return True

    def key(self) -> tuple:
        """Hashable identity (the :func:`repro.cache.domain_key` view)."""
        return tuple((name, lo, hi) for name, (lo, hi) in self._ranges.items())

    def box(self) -> Box:
        return self.key()

    def grid(self):
        """Iterate every integer valuation (dicts), in lexicographic
        order of the sorted parameter names."""
        names = self.names
        if self.is_empty:
            return
        def rec(i: int, acc: dict):
            if i == len(names):
                yield dict(acc)
                return
            lo, hi = self._ranges[names[i]]
            for v in range(lo, hi + 1):
                acc[names[i]] = v
                yield from rec(i + 1, acc)
        yield from rec(0, {})

    def corners(self):
        """Iterate the corner valuations of the box (deduplicated)."""
        seen = set()
        for corner in self._corners_raw():
            key = tuple(sorted(corner.items()))
            if key not in seen:
                seen.add(key)
                yield dict(corner)

    def _corners_raw(self):
        names = self.names
        if self.is_empty:
            return
        def rec(i: int, acc: dict):
            if i == len(names):
                yield dict(acc)
                return
            lo, hi = self._ranges[names[i]]
            for v in {lo, hi}:
                acc[names[i]] = v
                yield from rec(i + 1, acc)
        yield from rec(0, {})

    def center(self) -> dict[str, int]:
        """The (rounded-down) midpoint valuation."""
        return {name: (lo + hi) // 2 for name, (lo, hi) in self._ranges.items()}

    # -- identity -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParamDomain):
            return self._ranges == other._ranges
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ParamDomain", self.key()))

    def __repr__(self) -> str:
        return f"ParamDomain({self._ranges!r})"

    def __str__(self) -> str:
        if not self._ranges:
            return "(no parameters)"
        return ", ".join(f"{n}={lo}..{hi}" for n, (lo, hi) in self._ranges.items())


class MCRCandidate:
    """One symbolic cycle-ratio candidate of the piecewise maximum."""

    __slots__ = ("label", "kind", "ratio")

    def __init__(self, label: str, kind: str, ratio: Rat):
        self.label = label      #: ``ring:<actor>`` or ``cycle:<scc>``
        self.kind = kind        #: ``"ring"`` | ``"cycle"``
        self.ratio = Rat.coerce(ratio)

    def value_at(self, bindings: Mapping) -> Fraction:
        return self.ratio.evaluate(bindings)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MCRCandidate):
            return self.label == other.label and self.ratio == other.ratio
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("MCRCandidate", self.label, self.ratio))

    def __repr__(self) -> str:
        return f"MCRCandidate({self.label!r}, {self.ratio!r})"

    def __str__(self) -> str:
        return f"{self.label} = {self.ratio}"


class Region:
    """A box of the domain on which one candidate attains the maximum."""

    __slots__ = ("bounds", "candidate")

    def __init__(self, bounds: Box, candidate: int):
        self.bounds = tuple(sorted(tuple(b) for b in bounds))
        self.candidate = candidate  #: index into ``PiecewiseMCR.candidates``

    def contains(self, bindings: Mapping) -> bool:
        named = normalize_bindings(bindings)
        return all(lo <= named.get(name, Fraction(-1)) <= hi
                   for name, lo, hi in self.bounds)

    @property
    def size(self) -> int:
        total = 1
        for _, lo, hi in self.bounds:
            total *= max(0, hi - lo + 1)
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Region):
            return self.bounds == other.bounds and self.candidate == other.candidate
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Region", self.bounds, self.candidate))

    def __repr__(self) -> str:
        return f"Region({self.bounds!r}, candidate={self.candidate})"

    def __str__(self) -> str:
        where = ", ".join(f"{name}={lo}..{hi}" for name, lo, hi in self.bounds)
        return f"{where or '(everywhere)'} -> #{self.candidate}"


class PiecewiseMCR:
    """The maximum cycle ratio as a piecewise-symbolic function.

    ``candidates`` are the symbolic cycle-ratio families; ``regions``
    partition the (non-empty part of the) domain into boxes on which a
    single candidate attains the maximum, with exact boundaries derived
    by comparing the candidates as polynomials — no sampling.

    The object is plain data (pickle-safe) and is what
    :class:`repro.analysis.ParametricReport` and the analysis service's
    workers ship between processes.
    """

    __slots__ = ("graph_name", "domain", "candidates", "regions", "_q")

    def __init__(self, graph_name: str, domain: ParamDomain,
                 candidates, regions, q_sym: Mapping[str, Poly]):
        self.graph_name = graph_name
        self.domain = domain
        self.candidates: tuple[MCRCandidate, ...] = tuple(candidates)
        self.regions: tuple[Region, ...] = tuple(regions)
        self._q = dict(q_sym)

    # -- evaluation -----------------------------------------------------
    def evaluate(self, bindings: Mapping | None = None) -> Fraction:
        """The exact MCR at ``bindings`` (must lie inside the domain).

        Mirrors the concrete path's validity rules: a valuation at
        which some repetition count is fractional or non-positive
        raises :class:`~repro.errors.AnalysisError`, exactly as
        :func:`~repro.csdf.mcr.max_cycle_ratio` would.
        """
        named = normalize_bindings(bindings or {})
        if not self.domain.contains(named):
            raise ParametricMCRError(
                f"binding {dict(bindings or {})} lies outside the domain "
                f"{self.domain} this piecewise MCR was computed for"
            )
        for name, poly in self._q.items():
            value = poly.evaluate(named)
            if value.denominator != 1:
                raise AnalysisError(
                    f"repetition count of {name!r} is {value} under "
                    f"{dict(bindings or {})}: not an integer"
                )
            if value <= 0:
                raise AnalysisError(
                    f"repetition count of {name!r} is non-positive: {value}"
                )
        if not self.candidates:
            return Fraction(0)
        return max(c.ratio.evaluate(named) for c in self.candidates)

    def evaluate_float(self, bindings: Mapping | None = None) -> float:
        """``float`` view of :meth:`evaluate` — bit-identical to
        :func:`~repro.csdf.mcr.max_cycle_ratio`."""
        return float(self.evaluate(bindings))

    __call__ = evaluate_float

    def dominant(self, bindings: Mapping | None = None) -> MCRCandidate:
        """The candidate attaining the maximum at ``bindings`` (lowest
        index on ties — the same tie-break the regions use)."""
        named = normalize_bindings(bindings or {})
        self.evaluate(named)  # domain + validity checks
        if not self.candidates:
            raise ParametricMCRError(
                f"piecewise MCR of {self.graph_name!r} has no candidates "
                f"(the graph has no actors), so no cycle dominates"
            )
        best = self.candidates[0]
        best_value = best.ratio.evaluate(named)
        for candidate in self.candidates[1:]:
            value = candidate.ratio.evaluate(named)
            if value > best_value:
                best, best_value = candidate, value
        return best

    def region_for(self, bindings: Mapping) -> Region | None:
        """The region box containing ``bindings`` (None when outside)."""
        for region in self.regions:
            if region.contains(bindings):
                return region
        return None

    # -- reporting ------------------------------------------------------
    def fingerprint(self) -> tuple:
        """Deterministic value identity (for the parity suites)."""
        return (
            self.graph_name,
            self.domain.key(),
            tuple((c.label, c.kind, str(c.ratio)) for c in self.candidates),
            tuple((r.bounds, r.candidate) for r in self.regions),
        )

    def describe(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"parametric MCR of {self.graph_name!r} over {self.domain}: "
            f"{len(self.candidates)} candidate(s), {len(self.regions)} region(s)"
        ]
        for index, candidate in enumerate(self.candidates):
            lines.append(f"  [{index}] {candidate}")
        if self.domain.is_empty:
            lines.append("  (empty domain: no regions)")
        for region in self.regions:
            where = ", ".join(f"{n}={lo}..{hi}" for n, lo, hi in region.bounds)
            label = self.candidates[region.candidate].label
            lines.append(f"  {where or '(everywhere)'} -> {label}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PiecewiseMCR({self.graph_name!r}, {self.domain}, "
            f"candidates={len(self.candidates)}, regions={len(self.regions)})"
        )


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

def parametric_mcr(
    graph,
    domain: DomainLike = None,
    *,
    max_boxes: int = 20_000,
) -> PiecewiseMCR:
    """Compute the MCR of ``graph`` as a piecewise-symbolic function
    over ``domain``.

    ``graph`` may be a :class:`~repro.csdf.graph.CSDFGraph` or anything
    with an ``as_csdf()`` view (TPDF graphs).  ``domain`` must bind
    every parameter occurring in the graph's rates; it accepts a
    :class:`ParamDomain`, a mapping ``{"p": (1, 8)}``, or CLI-style
    specs ``["p=1..8"]``.  Results are memoized per graph version.

    Raises :class:`~repro.errors.ParametricMCRError` when the graph's
    cyclic core is not binding-independent (the supported-class
    condition), and :class:`~repro.errors.DeadlockError` when the core
    deadlocks (a token-free cycle — exactly when the concrete solver
    would raise, at every valuation).
    """
    csdf: CSDFGraph = graph.as_csdf() if hasattr(graph, "as_csdf") else graph
    dom = ParamDomain.of(domain)
    return cached(
        csdf, ("parametric_mcr", domain_key(dom), max_boxes),
        lambda: _parametric_mcr(csdf, dom, max_boxes),
    )


def _parametric_mcr(csdf: CSDFGraph, domain: ParamDomain, max_boxes: int) -> PiecewiseMCR:
    unbound = sorted(csdf.parameters() - set(domain.names))
    if unbound:
        raise ParametricMCRError(
            f"domain {domain} does not bind parameter(s) "
            f"{', '.join(unbound)} of graph {csdf.name!r}; pass a range "
            f"for every parameter (e.g. --param {unbound[0]}=1..8)"
        )
    if not csdf.actors:
        return PiecewiseMCR(csdf.name, domain, (), (), {})
    q_sym = repetition_vector(csdf)

    candidates: list[MCRCandidate] = [
        _ring_candidate(csdf, name, q_sym) for name in csdf.actors
    ]
    for scc in sorted(cyclic_components(csdf)):
        candidates.append(_core_candidate(csdf, scc, q_sym))

    deduped: list[MCRCandidate] = []
    for candidate in candidates:
        if not any(candidate.ratio == kept.ratio for kept in deduped):
            deduped.append(candidate)

    regions = _partition(domain, deduped, max_boxes)
    return PiecewiseMCR(csdf.name, domain, deduped, regions, q_sym)


def _ring_candidate(csdf: CSDFGraph, name: str, q_sym: Mapping[str, Poly]) -> MCRCandidate:
    """The serialization-ring candidate of one actor.

    The ring carries one token and its weight is the actor's whole
    per-iteration work: ``q_a`` firings cycling through the phase
    execution times, i.e. ``q_a * mean(exec phases)`` — exact because
    the phase count divides ``tau_a`` which divides ``q_a``.
    """
    times = csdf.actor(name).exec_times
    mean = Fraction(0)
    for t in times:
        mean += Fraction(t)
    mean /= len(times)
    return MCRCandidate(f"ring:{name}", "ring", Rat(q_sym[name].scale(mean)))


def _core_candidate(
    csdf: CSDFGraph, scc: tuple[str, ...], q_sym: Mapping[str, Poly]
) -> MCRCandidate:
    """The maximum cycle ratio of one cyclic core, as an exact constant.

    Validates the supported-class condition (constant repetition counts
    and rates inside the core), builds the core's sub-expansion —
    binding-independent by construction — and takes its exact ratio
    from one Howard run.
    """
    label = f"cycle:{'+'.join(scc)}"
    q_core: dict[str, int] = {}
    for name in scc:
        poly = q_sym[name]
        if not poly.is_const():
            raise ParametricMCRError(
                f"actor {name!r} lies on a directed cycle but its repetition "
                f"count {poly} is parametric: the cyclic core's shape changes "
                f"with the parameters, which the parametric MCR engine does "
                f"not support (evaluate concretely per binding instead)"
            )
        value = poly.const_value()
        if value.denominator != 1 or value <= 0:
            raise AnalysisError(
                f"repetition count of {name!r} is {value}: not a positive integer"
            )
        q_core[name] = int(value)
    members = set(scc)
    core_channels = [
        c for c in csdf.channels.values() if c.src in members and c.dst in members
    ]
    for channel in core_channels:
        if not (channel.production.is_constant() and channel.consumption.is_constant()):
            raise ParametricMCRError(
                f"channel {channel.name!r} lies on a directed cycle and has "
                f"parametric rates: the cyclic core's shape changes with the "
                f"parameters, which the parametric MCR engine does not "
                f"support (evaluate concretely per binding instead)"
            )

    rows = [(c.src, c.dst, c.production.as_ints(None), c.consumption.as_ints(None),
             c.initial_tokens) for c in core_channels]
    _offset, edges = _event_graph(q_core, scc, rows)
    ratio, _policy = _solve_core(edges, _firing_times(csdf, q_core.items()))
    return MCRCandidate(label, "cycle", Rat(Poly.const(ratio)))


# ----------------------------------------------------------------------
# exact region partition
# ----------------------------------------------------------------------

def _whole_domain_regions(domain: ParamDomain, candidate: int) -> tuple[Region, ...]:
    if domain.is_empty:
        return ()
    return (Region(domain.box(), candidate),)


def _partition(
    domain: ParamDomain, candidates: list[MCRCandidate], max_boxes: int
) -> tuple[Region, ...]:
    """Partition the domain into boxes on which one candidate dominates.

    Dominance over a box is certified by exact interval bounds on the
    pairwise difference polynomials; uncertified boxes are bisected,
    bottoming out at single valuations decided by exact evaluation.
    Boundaries are exact: no Howard run and no floating point is
    involved.  Ties go to the lowest candidate index everywhere, so the
    partition is deterministic.
    """
    if domain.is_empty:
        return ()
    if len(candidates) <= 1:
        return _whole_domain_regions(domain, 0)
    n = len(candidates)
    diffs: dict[tuple[int, int], Poly | None] = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                diffs[i, j] = _difference_poly(candidates[i].ratio, candidates[j].ratio)

    pending: list[Box] = [domain.box()]
    regions: list[Region] = []
    budget = max_boxes
    while pending:
        budget -= 1
        if budget < 0:
            raise ParametricMCRError(
                f"region partition of {domain} exceeded {max_boxes} boxes; "
                f"coarsen the domain or raise max_boxes"
            )
        box = pending.pop()
        dominant = _dominant_over_box(box, diffs, n)
        if dominant is not None:
            regions.append(Region(box, dominant))
            continue
        if all(lo == hi for _, lo, hi in box):
            point = {name: lo for name, lo, _ in box}
            values = [c.ratio.evaluate(point) for c in candidates]
            regions.append(Region(box, values.index(max(values))))
            continue
        pending.extend(_bisect(box))
    return tuple(_merge_regions(regions))


def _difference_poly(a: Rat, b: Rat) -> Poly | None:
    """``a - b`` as a polynomial when the denominators are constant
    (always true for ring/cycle candidates); None otherwise — the
    partition then decides point-wise."""
    diff = a - b
    if not diff.den.is_const():
        return None
    return diff.num.scale(1 / diff.den.const_value())


def _dominant_over_box(box: Box, diffs, n: int) -> int | None:
    for i in range(n):
        if all(
            diffs[i, j] is not None and _min_over_box(diffs[i, j], box) >= 0
            for j in range(n) if j != i
        ):
            return i
    return None


def _min_over_box(poly: Poly, box: Box) -> Fraction:
    """Exact lower bound of ``poly`` over the box (parameters >= 1):
    each monomial is monotone in every variable, so its extreme sits at
    a corner determined by the coefficient sign."""
    bounds = {name: (lo, hi) for name, lo, hi in box}
    total = Fraction(0)
    for key, coeff in poly.terms.items():
        value = coeff
        for name, exp in key:
            lo, hi = bounds.get(name, (1, 1))
            value *= (lo if coeff > 0 else hi) ** exp
        total += value
    return total


def _bisect(box: Box) -> list[Box]:
    """Split the box in half along its widest axis."""
    widest = max(range(len(box)), key=lambda i: box[i][2] - box[i][1])
    name, lo, hi = box[widest]
    mid = (lo + hi) // 2
    left = list(box)
    right = list(box)
    left[widest] = (name, lo, mid)
    right[widest] = (name, mid + 1, hi)
    return [tuple(left), tuple(right)]


def _merge_regions(regions: list[Region]) -> list[Region]:
    """Greedily merge same-candidate boxes that are identical on all
    axes but one and contiguous there (keeps the partition small and
    readable; correctness does not depend on merging)."""
    regs = list(regions)
    changed = True
    while changed:
        changed = False
        merged: list[Region] = []
        used = [False] * len(regs)
        for i in range(len(regs)):
            if used[i]:
                continue
            current = regs[i]
            for j in range(i + 1, len(regs)):
                if used[j] or regs[j].candidate != current.candidate:
                    continue
                combined = _try_merge(current, regs[j])
                if combined is not None:
                    current = combined
                    used[j] = True
                    changed = True
            merged.append(current)
        regs = merged
    return sorted(regs, key=lambda r: (r.bounds, r.candidate))


def _try_merge(a: Region, b: Region) -> Region | None:
    if len(a.bounds) != len(b.bounds):
        return None
    differing = [
        i for i, (ba, bb) in enumerate(zip(a.bounds, b.bounds)) if ba != bb
    ]
    if len(differing) != 1:
        return None
    i = differing[0]
    name_a, lo_a, hi_a = a.bounds[i]
    name_b, lo_b, hi_b = b.bounds[i]
    if name_a != name_b:
        return None
    if hi_a + 1 == lo_b:
        span = (name_a, lo_a, hi_b)
    elif hi_b + 1 == lo_a:
        span = (name_a, lo_b, hi_a)
    else:
        return None
    bounds = list(a.bounds)
    bounds[i] = span
    return Region(tuple(bounds), a.candidate)


# ----------------------------------------------------------------------
# verification against the concrete solver
# ----------------------------------------------------------------------

def verify_piecewise(
    piecewise: PiecewiseMCR,
    graph,
    bindings_iter: Iterable[Mapping] | None = None,
    max_corner_checks: int = 32,
) -> int:
    """Cross-check ``piecewise`` against concrete Howard MCR.

    Evaluates both sides at each sampled binding (default: the domain's
    corners, capped, plus its center) and raises
    :class:`~repro.errors.AnalysisError` on any disagreement; bindings
    at which the concrete path raises must make the piecewise
    evaluation raise too.  Returns the number of bindings checked.

    This is the "Howard at sampled vertices" safety net: the engine's
    candidate set is complete by construction for the supported class,
    and this check guards the construction itself.
    """
    csdf: CSDFGraph = graph.as_csdf() if hasattr(graph, "as_csdf") else graph
    if bindings_iter is None:
        samples = []
        for index, corner in enumerate(piecewise.domain.corners()):
            if index >= max_corner_checks:
                break
            samples.append(corner)
        if not piecewise.domain.is_empty:
            center = piecewise.domain.center()
            if center not in samples:
                samples.append(center)
        bindings_iter = samples
    checked = 0
    for bindings in bindings_iter:
        checked += 1
        try:
            concrete = max_cycle_ratio(csdf, bindings)
        except AnalysisError:
            try:
                piecewise.evaluate(bindings)
            except AnalysisError:
                continue
            raise AnalysisError(
                f"piecewise MCR evaluates at {bindings} where the concrete "
                f"solver raises"
            )
        symbolic = piecewise.evaluate_float(bindings)
        if symbolic != concrete:
            raise AnalysisError(
                f"piecewise MCR {symbolic!r} != concrete Howard MCR "
                f"{concrete!r} at {bindings} on graph {csdf.name!r}"
            )
    return checked
