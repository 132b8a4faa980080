"""Tests for the symbolic balance-equation solver."""

import pytest

from repro.symbolic import (
    InconsistentRatesError,
    Poly,
    consistency_conditions,
    solve_balance,
)

P = Poly.var("p")
ONE = Poly.const(1)
TWO = Poly.const(2)


class TestChains:
    def test_unit_chain(self):
        r = solve_balance(["a", "b"], [("a", "b", ONE, ONE)])
        assert r == {"a": ONE, "b": ONE}

    def test_rate_ratio(self):
        r = solve_balance(["a", "b"], [("a", "b", TWO, Poly.const(3))])
        assert (r["a"], r["b"]) == (Poly.const(3), TWO)

    def test_parametric_chain(self):
        r = solve_balance(["a", "b"], [("a", "b", P, ONE)])
        assert r["a"] == ONE
        assert r["b"] == P

    def test_parametric_downscale(self):
        r = solve_balance(["a", "b"], [("a", "b", ONE, P)])
        assert r["a"] == P
        assert r["b"] == ONE

    def test_fig2_example(self):
        nodes = ["A", "B", "C", "D", "E", "F"]
        edges = [
            ("A", "B", P, ONE),
            ("B", "C", ONE, TWO),
            ("B", "D", ONE, TWO),
            ("B", "E", ONE, ONE),
            ("C", "F", TWO, TWO),
            ("D", "F", TWO, TWO),
            ("E", "F", ONE, TWO),
        ]
        r = solve_balance(nodes, edges)
        expected = {
            "A": TWO, "B": 2 * P, "C": P, "D": P, "E": 2 * P, "F": P,
        }
        assert r == expected


class TestCyclesAndConsistency:
    def test_consistent_cycle(self):
        edges = [
            ("a", "b", TWO, ONE),
            ("b", "c", ONE, TWO),
            ("c", "a", TWO, TWO),
        ]
        r = solve_balance(["a", "b", "c"], edges)
        assert r == {"a": ONE, "b": TWO, "c": ONE}

    def test_inconsistent_cycle_raises(self):
        edges = [
            ("a", "b", ONE, ONE),
            ("b", "a", TWO, ONE),
        ]
        with pytest.raises(InconsistentRatesError):
            solve_balance(["a", "b"], edges)

    def test_inconsistent_parametric_cycle(self):
        edges = [
            ("a", "b", P, ONE),
            ("b", "a", ONE, ONE),
        ]
        with pytest.raises(InconsistentRatesError):
            solve_balance(["a", "b"], edges)

    def test_parametric_cycle_consistent(self):
        edges = [
            ("a", "b", P, ONE),
            ("b", "a", ONE, P),
        ]
        r = solve_balance(["a", "b"], edges)
        assert r["a"] == ONE
        assert r["b"] == P


class TestDegenerateEdges:
    def test_zero_zero_edge_is_vacuous(self):
        r = solve_balance(
            ["a", "b"],
            [("a", "b", Poly(), Poly()), ("a", "b", ONE, ONE)],
        )
        assert r == {"a": ONE, "b": ONE}

    def test_production_into_zero_consumption_raises(self):
        with pytest.raises(InconsistentRatesError):
            solve_balance(["a", "b"], [("a", "b", ONE, Poly())])

    def test_negative_rate_rejected(self):
        with pytest.raises(InconsistentRatesError):
            solve_balance(["a", "b"], [("a", "b", P - 1, ONE)])

    def test_unknown_endpoint(self):
        with pytest.raises(KeyError):
            solve_balance(["a"], [("a", "zzz", ONE, ONE)])

    @pytest.mark.parametrize("edge", [("a", "b", ONE, ONE), ("b", "a", P, ONE)])
    def test_unknown_endpoint_same_error_in_conditions(self, edge):
        expected = "edge endpoint 'b' is not in the node set"
        for solve in (solve_balance, consistency_conditions):
            with pytest.raises(KeyError) as info:
                solve(["a"], [edge])
            assert info.value.args == (expected,)


class TestComponents:
    def test_isolated_node_gets_one(self):
        r = solve_balance(["a", "b", "lonely"], [("a", "b", ONE, TWO)])
        assert r["lonely"] == ONE

    def test_components_normalized_independently(self):
        edges = [
            ("a", "b", TWO, ONE),
            ("x", "y", Poly.const(3), ONE),
        ]
        r = solve_balance(["a", "b", "x", "y"], edges)
        assert (r["a"], r["b"]) == (ONE, TWO)
        assert (r["x"], r["y"]) == (ONE, Poly.const(3))

    def test_empty_graph(self):
        assert solve_balance([], []) == {}


class TestNormalization:
    def test_binomial_rates(self):
        n, l, beta = Poly.var("N"), Poly.var("L"), Poly.var("beta")
        edges = [("a", "b", beta * (n + l), beta * (n + l))]
        r = solve_balance(["a", "b"], edges)
        assert r == {"a": ONE, "b": ONE}

    def test_binomial_scaling(self):
        n, l = Poly.var("N"), Poly.var("L")
        edges = [("a", "b", n + l, ONE)]
        r = solve_balance(["a", "b"], edges)
        assert r["a"] == ONE
        assert r["b"] == n + l

    def test_minimality_no_common_factor(self):
        edges = [("a", "b", 2 * P, 2 * P)]
        r = solve_balance(["a", "b"], edges)
        assert r == {"a": ONE, "b": ONE}

    def test_solution_strictly_positive(self):
        r = solve_balance(["a", "b"], [("a", "b", P, TWO)])
        for value in r.values():
            assert value.has_nonnegative_coefficients()
            assert not value.is_zero()
