"""CSDF actors.

An actor is an iterated task: its n-th firing runs phase ``n mod tau``
of its cyclic execution sequence and moves tokens on its channels
according to the rate sequences attached to the channel ends (see
:mod:`repro.csdf.rates`).

Execution times are attached to actors (not part of the MoC itself) so
the scheduling and simulation layers can model latency: either a single
number applied to every phase, or one number per phase.
"""

from __future__ import annotations

from typing import Sequence, Union

ExecTime = Union[float, int, Sequence[float]]


def _validate_exec_times(name: str, exec_time: ExecTime) -> tuple[float, ...]:
    if isinstance(exec_time, (int, float)):
        times: tuple[float, ...] = (float(exec_time),)
    else:
        times = tuple(float(t) for t in exec_time)
        if not times:
            raise ValueError(f"actor {name!r}: empty execution-time sequence")
    for t in times:
        if t < 0:
            raise ValueError(f"actor {name!r}: negative execution time {t}")
    return times


class Actor:
    """A CSDF actor (computation node).

    Parameters
    ----------
    name:
        Unique identifier within the graph.
    exec_time:
        Model execution time per firing: a scalar, or a sequence giving
        one duration per phase (cyclically indexed).  Defaults to 1.0.
    function:
        Optional Python callable implementing the actor for data-level
        simulation (:mod:`repro.sim`).  Analyses ignore it.
    """

    __slots__ = ("name", "_exec_times", "function", "_owner")

    def __init__(self, name: str, exec_time: ExecTime = 1.0, function=None):
        if not name:
            raise ValueError("actor name must be non-empty")
        self.name = name
        #: Owning graph; set by ``CSDFGraph.add_actor`` so in-place
        #: edits propagate a cache-invalidation bump.
        self._owner = None
        self._exec_times = _validate_exec_times(name, exec_time)
        self.function = function

    def exec_time(self, firing: int = 0) -> float:
        """Execution time of the given firing (phase-cyclic)."""
        return self._exec_times[firing % len(self._exec_times)]

    @property
    def exec_times(self) -> tuple[float, ...]:
        return self._exec_times

    def set_exec_time(self, value: ExecTime) -> None:
        """Replace the execution-time sequence, invalidating cached
        analyses of the owning graph.

        When the number of phases is unchanged this is recorded as a
        *binding-only* mutation — timings feed the timed analyses (MCR,
        throughput) but not the rate algebra, so the repetition vector,
        liveness verdict and buffer bounds are carried forward.  A
        phase-count change alters ``tau`` and hence the repetition
        vector itself, so it is recorded structurally.
        """
        times = _validate_exec_times(self.name, value)
        if self._owner is not None:
            from ..cache import bump_version

            kind = "binding" if len(times) == len(self._exec_times) else "structural"
            # Bump before assigning: frozen graphs raise, actor intact.
            bump_version(self._owner, kind=kind)
        self._exec_times = times

    def __repr__(self) -> str:
        return f"Actor({self.name!r})"

    def __str__(self) -> str:
        return self.name
