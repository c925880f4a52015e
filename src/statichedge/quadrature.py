"""Gaussian quadrature rules.

Three classical families are exposed through a single ``make_rule`` entry
point, each exact for polynomials of degree <= 2n-1 against its weight:

* Legendre:  integral_{-1}^{1} f(x) dx            ~ sum w_i f(x_i)
* Hermite:   integral_{-inf}^{inf} e^{-x^2} f(x) dx ~ sum w_i f(x_i)
* Laguerre:  integral_{0}^{inf} e^{-x} f(x) dx      ~ sum w_i f(x_i)

``map_to_interval`` maps a Legendre rule affinely onto ``[a, b]``.  The
hedge builders integrate with the nodes and weights directly:
``spanning._excluded_region_rule`` joins a mapped Legendre rule and a
shifted Laguerre rule, so one vectorized kernel evaluation covers both
pieces of the excluded region.

Rules are cached per ``(kind, order)`` because experiment sweeps reuse
them thousands of times.  Cached rules are immutable (read-only arrays)
and safe to share across threads; the cache itself is a thread-safe
idempotent insert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite, roots_laguerre, roots_legendre

from .errors import QuadratureError

__all__ = [
    "QuadratureRule",
    "make_rule",
    "map_to_interval",
]

LEGENDRE = "legendre"
HERMITE = "hermite"
LAGUERRE = "laguerre"

# Laguerre weights underflow to exact zero in binary64 slightly below order
# 200 (the largest node passes e^-x below the smallest subnormal), so that
# family is capped lower than the other two.
ORDER_CAP = {LEGENDRE: 200, HERMITE: 200, LAGUERRE: 180}

_ROOTS = {
    LEGENDRE: roots_legendre,
    HERMITE: roots_hermite,
    LAGUERRE: roots_laguerre,
}


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gaussian rule on its domain.

    Invariants: nodes strictly ascending, weights strictly positive, and
    the weight sum matches the integral of 1 against the family weight
    (2 for Legendre, sqrt(pi) for Hermite, 1 for Laguerre).
    """

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.weights):
            arr.setflags(write=False)


def _normalize_kind(kind):
    k = str(kind).strip().lower()
    if k not in _ROOTS:
        raise QuadratureError(
            f"unknown rule kind {kind!r}; expected one of {sorted(_ROOTS)}"
        )
    return k


@lru_cache(maxsize=None)
def _cached_rule(kind: str, n: int) -> QuadratureRule:
    x, w = _ROOTS[kind](n)
    return QuadratureRule(kind, n, np.asarray(x, dtype=float), np.asarray(w, dtype=float))


def make_rule(kind, n: int) -> QuadratureRule:
    """Build (or fetch from cache) the order-``n`` rule of the given kind.

    Parameters
    ----------
    kind : str
        ``"legendre"``, ``"hermite"`` or ``"laguerre"`` (case-insensitive).
    n : int
        Number of nodes; ``1 <= n <= 200`` (180 for Laguerre, where the
        float64 weights underflow beyond that).
    """
    kind = _normalize_kind(kind)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise QuadratureError(f"order must be an integer, got {n!r}")
    cap = ORDER_CAP[kind]
    if n < 1 or n > cap:
        raise QuadratureError(
            f"order {n} outside supported range [1, {cap}] for {kind} "
            "(node computation accuracy degrades beyond the cap)"
        )
    return _cached_rule(kind, int(n))


def map_to_interval(rule: QuadratureRule, a: float, b: float) -> QuadratureRule:
    """Affinely transplant a Legendre rule from [-1, 1] onto ``[a, b]``.

    Nodes map as ``t_i = (b - a)/2 * x_i + (a + b)/2`` and weights scale by
    ``(b - a)/2``, so the mapped weights sum to ``b - a``.
    """
    if rule.kind != LEGENDRE:
        raise QuadratureError(
            f"interval mapping is defined for legendre rules, got {rule.kind!r}"
        )
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError("interval endpoints must be finite")
    if a >= b:
        raise QuadratureError(f"need a < b, got a={a!r}, b={b!r}")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return QuadratureRule(LEGENDRE, rule.order, half * rule.nodes + mid, half * rule.weights)

