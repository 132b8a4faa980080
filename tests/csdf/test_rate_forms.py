"""The integer form of :class:`RateSequence` against its ``Poly`` form.

A sequence whose phases are all integer constants is stored as ints,
however it was built.  Built from ints, from constant ``Poly`` entries
or from integral ``Fraction`` entries, it must be indistinguishable,
and every view must equal what ``Poly`` arithmetic on the phases gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.csdf import RateSequence
from repro.symbolic import Poly
from repro.tpdf.ports import Port, PortKind

P = Poly.var("p")

#: zeros, one phase, long phases
PHASES = st.one_of(
    st.lists(st.just(0), min_size=1, max_size=4),
    st.lists(st.integers(0, 9), min_size=1, max_size=1),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
BUILDS = st.sampled_from(["poly", "fraction", "mixed"])


def _rebuilt(values: list[int], how: str) -> list:
    """The same phases as ``Poly`` constants, ``Fraction``s, or both
    alternating with plain ints."""
    if how == "poly":
        return [Poly.const(v) for v in values]
    if how == "fraction":
        return [Fraction(2 * v, 2) for v in values]
    return [Poly.const(v) if i % 2 else Fraction(v) for i, v in enumerate(values)]


def _poly_sum(entries) -> Poly:
    total = Poly()
    for entry in entries:
        total = total + entry
    return total


@given(values=PHASES, how=BUILDS, n=st.integers(0, 200))
def test_int_and_poly_builds_agree(values, how, n):
    ints = RateSequence(values)
    polys = RateSequence(_rebuilt(values, how))
    expected = tuple(Poly.const(v) for v in values)

    assert ints.entries == polys.entries == expected
    assert [repr(e) for e in ints.entries] == [repr(e) for e in expected]
    assert list(ints) == list(polys) == list(expected)
    tau = len(values)
    assert len(ints) == len(polys) == tau
    assert [ints.rate(i) for i in range(2 * tau)] == [polys[i] for i in range(2 * tau)]
    assert str(ints) == str(polys) == "[" + ",".join(map(str, expected)) + "]"
    assert repr(ints) == repr(polys) == f"RateSequence({[str(e) for e in expected]})"
    assert ints == polys and hash(ints) == hash(polys)
    assert ints.as_ints() == polys.as_ints({"p": 3}) == tuple(values)

    cumulative = _poly_sum(expected[i % tau] for i in range(n))
    for seq in (ints, polys):
        assert seq.cumulative(n) == cumulative
        assert repr(seq.cumulative(n)) == repr(cumulative)
        assert seq.cycle_total() == _poly_sum(expected)
        assert repr(seq.cycle_total()) == repr(_poly_sum(expected))
    assert ints.bind({"p": 2}) == polys.bind({"p": 2}) == ints
    assert ints.variables() == polys.variables() == set()
    assert ints.is_uniform() == polys.is_uniform() == (len(set(values)) == 1)
    assert ints.is_constant() and polys.is_constant()
    assert ints.cumulative_symbolic(Poly.const(n)) == cumulative


@given(values=PHASES, how=BUILDS, data=st.data())
def test_negative_phase_error_agrees(values, how, data):
    negative = data.draw(st.integers(-10**6, -1))
    at = data.draw(st.integers(0, len(values)))
    bad = values[:at] + [negative] + values[at:]
    message = f"rate {negative} may become negative for some parameter values"
    with pytest.raises(ValueError) as from_ints:
        RateSequence(bad)
    with pytest.raises(ValueError) as from_polys:
        RateSequence(_rebuilt(bad, how))
    assert str(from_ints.value) == str(from_polys.value) == message


@given(values=PHASES, at=st.integers(0, 40))
def test_symbolic_phase_keeps_the_poly_form(values, at):
    """One parametric phase keeps every phase a ``Poly``: the sequence
    matches one built from ``Poly`` entries throughout, and never
    equals an integer sequence."""
    at = min(at, len(values))
    mixed = values[:at] + [2 * P] + values[at:]
    seq = RateSequence(mixed)
    twin = RateSequence([Poly.coerce(v) for v in mixed])
    assert seq.entries == twin.entries
    assert (str(seq), repr(seq), hash(seq)) == (str(twin), repr(twin), hash(twin))
    assert seq.variables() == {"p"}
    assert not seq.is_constant()
    assert seq != RateSequence(values)
    bound = seq.bind({"p": 2})
    assert bound == RateSequence(values[:at] + [4] + values[at:])
    assert bound.as_ints() == seq.as_ints({"p": 2})


def test_fractional_phase_keeps_the_poly_form():
    seq = RateSequence([1, Fraction(1, 2)])
    assert str(seq) == "[1,1/2]"
    assert seq.is_constant()
    assert seq.cycle_total() == Poly.const(Fraction(3, 2))
    with pytest.raises(ValueError, match="not a non-negative integer"):
        seq.as_ints()


@pytest.mark.parametrize("rates, shown", [
    ([2], "2"), ([0, 1, 3], "3"), ([P], "p"), ([Fraction(1, 2)], "1/2"),
])
def test_control_port_rates_must_be_zero_or_one(rates, shown):
    with pytest.raises(ValueError, match=f"got {shown}$"):
        Port("ctrl", PortKind.CONTROL_IN, rates)
    for ok in ([0, 1], [Poly.const(1)], [Fraction(0)]):
        assert Port("ctrl", PortKind.CONTROL_IN, ok).rates == RateSequence(ok)
