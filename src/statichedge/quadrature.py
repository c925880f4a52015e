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

Construction is Golub-Welsch (``_golub_welsch``): the nodes are the
eigenvalues of the family's symmetric tridiagonal Jacobi matrix, from
``numpy.linalg.eigvalsh`` on the dense matrix.  One Newton step on the
orthogonal polynomial then polishes them, and the weights are
``1 / (p_{n-1}(x) p_n'(x))``, log-normalised against overflow,
symmetrised for the even families and scaled to sum to ``mu0``.  This
follows scipy 1.17.1's ``_gen_roots_and_weights`` and the family set-ups
of ``roots_legendre``, ``roots_hermite`` and ``roots_genlaguerre(n, 0)``
expression for expression (with alpha = 0 folded into the Laguerre
terms), so every rule is bitwise scipy's; ``tests/test_quadrature.py``
checks every order.  That code is scipy's, used under its BSD-3 licence
(Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers).
scipy's own version imports ``scipy.linalg`` for ``eigvals_banded``, about
5 MiB of resident memory that this module does not need.  Hermite rules above
order ``HERMITE_ASYMPTOTIC`` = 150 come from ``scipy.special.roots_hermite``
itself, which switches there to an asymptotic expansion (no
``scipy.linalg`` either).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_genlaguerre, eval_hermite, eval_legendre, roots_hermite

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

# scipy's switch from Golub-Welsch to the asymptotic Hermite rule.
HERMITE_ASYMPTOTIC = 150


def _golub_welsch(n, mu0, diag, off, p, dp, symmetrize):
    """Order-``n`` Gauss rule of the monic recurrence p_{k+1} = (x -
    diag(k)) p_k - off(k)^2 p_{k-1}, with weights summing to ``mu0``.
    ``p(n, x)`` and ``dp(n, x)`` evaluate the family's orthogonal
    polynomial and its derivative.  scipy's ``_gen_roots_and_weights``,
    with a dense ``eigvalsh`` in place of ``scipy.linalg.eigvals_banded``."""
    k = np.arange(n, dtype="d")
    b = off(k[1:])
    x = np.linalg.eigvalsh(np.diag(diag(k)) + np.diag(b, 1) + np.diag(b, -1))
    # one Newton step on the eigenvalues
    y = p(n, x)
    dy = dp(n, x)
    x -= y / dy
    # p_{n-1} and p_n' span many magnitudes: centre each on the log scale
    # before the product
    fm = p(n - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    if symmetrize:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    return x, w


def _laguerre_dp(n, x):
    return (n * eval_genlaguerre(n, 0.0, x) - n * eval_genlaguerre(n - 1, 0.0, x)) / x


# (mu0, diag, off, p, dp, symmetrize) of each family, as scipy sets them up
_FAMILIES = {
    LEGENDRE: (2.0, lambda k: 0.0 * k, lambda k: k * np.sqrt(1.0 / (4 * k * k - 1)),
               eval_legendre,
               lambda n, x: (-n * x * eval_legendre(n, x) + n * eval_legendre(n - 1, x))
               / (1 - x ** 2),
               True),
    HERMITE: (np.sqrt(np.pi), lambda k: 0.0 * k, lambda k: np.sqrt(k / 2.0),
              eval_hermite, lambda n, x: 2.0 * n * eval_hermite(n - 1, x), True),
    LAGUERRE: (1.0, lambda k: 2 * k + 1, lambda k: -k,
               lambda n, x: eval_genlaguerre(n, 0.0, x), _laguerre_dp, False),
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
    if k not in _FAMILIES:
        raise QuadratureError(
            f"unknown rule kind {kind!r}; expected one of {sorted(_FAMILIES)}"
        )
    return k


@lru_cache(maxsize=None)
def _cached_rule(kind: str, n: int) -> QuadratureRule:
    if kind == HERMITE and n > HERMITE_ASYMPTOTIC:
        x, w = roots_hermite(n)
    else:
        x, w = _golub_welsch(n, *_FAMILIES[kind])
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

