import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite, roots_laguerre, roots_legendre

from statichedge import QuadratureError, make_rule, map_to_interval
from statichedge.quadrature import ORDER_CAP, _cached_rule


def test_legendre_two_point():
    rule = make_rule("legendre", 2)
    assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_hermite_one_point():
    rule = make_rule("hermite", 1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), abs=1e-14)


def test_laguerre_one_point():
    rule = make_rule("laguerre", 1)
    assert rule.nodes[0] == pytest.approx(1.0, abs=1e-14)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-14)


WEIGHT_SUM = {"legendre": 2.0, "hermite": math.sqrt(math.pi), "laguerre": 1.0}
SCIPY_ROOTS = {"legendre": roots_legendre, "hermite": roots_hermite, "laguerre": roots_laguerre}


@pytest.mark.parametrize("kind", ["legendre", "hermite", "laguerre"])
def test_rule_invariants_full_order_range(kind):
    for n in range(1, ORDER_CAP[kind] + 1):
        rule = make_rule(kind, n)
        assert rule.order == n and len(rule.nodes) == n
        nodes, weights = SCIPY_ROOTS[kind](n)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights), \
            f"{kind} n={n}: not bitwise scipy's rule"
        assert np.all(np.diff(rule.nodes) > 0), f"{kind} n={n}: nodes not ascending"
        assert np.all(rule.weights > 0), f"{kind} n={n}: weight not positive"
        assert abs(rule.weights.sum() - WEIGHT_SUM[kind]) < 1e-12
        if kind in ("legendre", "hermite"):
            assert np.all(np.abs(rule.nodes + rule.nodes[::-1]) < 1e-12)


def test_rejects_bad_orders():
    with pytest.raises(QuadratureError):
        make_rule("legendre", 0)
    with pytest.raises(QuadratureError):
        make_rule("legendre", 201)
    with pytest.raises(QuadratureError):
        make_rule("laguerre", 181)
    with pytest.raises(QuadratureError):
        make_rule("chebyshev", 5)
    with pytest.raises(QuadratureError):
        make_rule("legendre", 2.5)


def test_rules_are_cached_and_immutable():
    a = make_rule("legendre", 17)
    b = make_rule("legendre", 17)
    assert a is b
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0


def test_concurrent_first_construction():
    # one Golub-Welsch order per family, and one asymptotic Hermite order;
    # other tests have built them already, so empty the cache first
    orders = [("legendre", 37), ("hermite", 61), ("laguerre", 45), ("hermite", 173)]
    _cached_rule.cache_clear()
    start = threading.Barrier(8)
    results = []

    def build():
        start.wait(timeout=60)
        results.append([make_rule(kind, n) for kind, n in orders])

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(results) == 8
    for i in range(len(orders)):
        first = results[0][i]
        assert all(np.array_equal(r[i].nodes, first.nodes)
                   and np.array_equal(r[i].weights, first.weights) for r in results)


def test_map_identity_interval():
    rule = make_rule("legendre", 2)
    mapped = map_to_interval(rule, -1.0, 1.0)
    assert np.allclose(mapped.nodes, rule.nodes, atol=0)
    assert np.allclose(mapped.weights, rule.weights, atol=0)


def test_map_to_zero_two():
    mapped = map_to_interval(make_rule("legendre", 2), 0.0, 2.0)
    assert np.allclose(mapped.nodes, [1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(mapped.weights, [1.0, 1.0], atol=1e-15)
    assert mapped.weights.sum() == pytest.approx(2.0, abs=1e-13)


def test_map_rejects_bad_input():
    with pytest.raises(QuadratureError):
        map_to_interval(make_rule("legendre", 3), 2.0, 2.0)
    with pytest.raises(QuadratureError):
        map_to_interval(make_rule("legendre", 3), 0.0, math.inf)
    with pytest.raises(QuadratureError):
        map_to_interval(make_rule("hermite", 3), 0.0, 1.0)


def _integrate(f, a, b, n):
    """``integral_a^b f`` with the order-``n`` Legendre rule mapped onto [a, b]."""
    rule = map_to_interval(make_rule("legendre", n), a, b)
    return float(rule.weights @ f(rule.nodes))


def test_cubic_on_long_interval_exact():
    approx = _integrate(lambda x: x ** 3, 0.0, 130.0, 2)
    exact = 130.0 ** 4 / 4.0
    assert abs(approx - exact) / exact < 1e-6


@pytest.mark.parametrize("n", range(1, 31))
def test_legendre_polynomial_exactness(n):
    rule = make_rule("legendre", n)
    for k in range(0, 2 * n):
        approx = float(rule.weights @ rule.nodes ** k)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(approx - exact) < 1e-10, f"n={n}, k={k}"


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 40])
def test_hermite_even_moment_exactness(n):
    # integral e^{-x^2} x^{2m} dx = (2m-1)!! sqrt(pi) / 2^m for 2m <= 2n-1
    rule = make_rule("hermite", n)
    for m in range(0, (2 * n - 1) // 2 + 1):
        exact = math.sqrt(math.pi) * math.prod(range(1, 2 * m, 2)) / 2 ** m
        approx = float(rule.weights @ rule.nodes ** (2 * m))
        assert abs(approx - exact) / exact < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    a=st.floats(-8, 7.5),
    width=st.floats(0.1, 12),
    n=st.integers(4, 24),
)
def test_interval_map_consistency(coeffs, a, width, n):
    # integrating p(x) on [a, b] equals integrating its affine pullback on [-1, 1]
    b = a + width
    poly = np.polynomial.Polynomial(coeffs)

    def pullback(x):
        return poly(0.5 * (b - a) * x + 0.5 * (a + b)) * 0.5 * (b - a)

    direct = _integrate(poly, a, b, n)
    mapped = _integrate(pullback, -1.0, 1.0, n)
    assert direct == pytest.approx(mapped, abs=1e-12 * max(1.0, abs(direct)))
