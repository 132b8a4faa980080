"""CSDF communication channels (FIFO queues of tokens).

A channel carries tokens from its producer to its consumer; its state
is characterized by the number of tokens it holds, starting from
``initial_tokens`` (the ``phi*`` of the paper's Definition 2 restricted
to CSDF).  The production rate sequence is indexed by producer firings,
the consumption sequence by consumer firings.
"""

from __future__ import annotations

from ..errors import as_count
from .rates import RateLike, RateSequence


def token_count(channel: str, value, error: type[Exception] = ValueError) -> int:
    """``value`` checked as the initial-token count of ``channel``: a
    non-negative :func:`~repro.errors.as_count` (floats used to be
    truncated, 2.9 tokens kept as 2).  Raises ``error`` naming the
    channel."""
    return as_count(f"channel {channel!r}: initial tokens", value, error=error)


class Channel:
    """A directed FIFO channel between two actors.

    The rate sequences and the initial-token count feed every cached
    analysis, so assigning them after the channel joined a graph bumps
    that graph's analysis version (and raises on frozen graphs — the
    shared memoized products of ``as_csdf()``/``expand_to_hsdf()``).
    """

    __slots__ = ("name", "src", "dst", "_production", "_consumption",
                 "_initial_tokens", "_owner")

    def __init__(
        self,
        name: str,
        src: str,
        dst: str,
        production: RateLike,
        consumption: RateLike,
        initial_tokens: int = 0,
    ):
        self.name = name
        self.src = src
        self.dst = dst
        #: Owning graph; set by ``CSDFGraph.add_channel`` so in-place
        #: edits propagate a cache-invalidation bump.
        self._owner = None
        self.production = production
        self.consumption = consumption
        self.initial_tokens = initial_tokens

    def _touch(self) -> None:
        """Bump the owning graph's version *before* the field changes:
        on frozen graphs this raises, leaving the channel intact.

        Rate and token edits move the balance equations and the HSDF
        expansion shape, so they are structural.
        """
        if self._owner is not None:
            from ..cache import bump_version

            bump_version(self._owner, kind="structural")

    @property
    def production(self) -> RateSequence:
        return self._production

    @production.setter
    def production(self, value: RateLike) -> None:
        rates = RateSequence.of(value)
        self._touch()
        self._production = rates

    @property
    def consumption(self) -> RateSequence:
        return self._consumption

    @consumption.setter
    def consumption(self, value: RateLike) -> None:
        rates = RateSequence.of(value)
        self._touch()
        self._consumption = rates

    @property
    def initial_tokens(self) -> int:
        return self._initial_tokens

    @initial_tokens.setter
    def initial_tokens(self, value: int) -> None:
        tokens = token_count(self.name, value)
        self._touch()
        self._initial_tokens = tokens

    def is_selfloop(self) -> bool:
        return self.src == self.dst

    def variables(self) -> set[str]:
        return self.production.variables() | self.consumption.variables()

    def __repr__(self) -> str:
        return (
            f"Channel({self.name!r}, {self.src!r} -> {self.dst!r}, "
            f"prod={self.production}, cons={self.consumption}, "
            f"init={self.initial_tokens})"
        )
