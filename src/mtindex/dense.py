"""Dense-limit predictions for mean log-indices, from each rule's own ln F.

In the dense regime every degree sits at its mean, so an index is its rule's
ln F at the mean degrees, once per factor.  Per vertex of ER or RG at mean
degree k (one curve; only the definition of k differs), a vertex rule gives
ln F(k) and an edge rule, over nk/2 edges, 0.5*k*ln F(k, k).  Per part-1
vertex of BR with part degrees (d1, d2) = (n2*p, n1*p), an edge rule gives
d1*ln F(d1, d2), as the n1*d1 edges each join degrees d1 and d2; a vertex
rule is defined only at d1 == d2, as twice the ER value.

The rules run in doubles on the degrees themselves, so outside k in
[~1.5e-154, ~1.3e154], where k*k leaves the normal double range, a rule that
forms k*k underflows (a ValueError) or is not finite.  Predictions are only
expected to describe ensemble data from :data:`DENSE_REGIME_MEAN_DEGREE` upward.

Their error from there, exact minus predicted ln X per vertex at k = 10, 20
and 40 (ER at n = 250 and BR at 125 + 125, exact at finite n), lies in bands
the tests check: [-1.2/k, 0] for nk, pi1 and idpi; (0, 0.55] for pi2 and
pi1s; [-0.55, 0) for rpi, hpi and chipi.  A vertex degree's variance, about
k, moves E ln F by about k/2 (ln F)''(k), O(1/k).  An edge end's degree is
1 + Bin(n - 2, p), with mean about k + 1: the excess degree (Newman, SIAM Rev.
45, 2003).  That shift and the variance term move an edge's ln F by O(1/k),
so over the k/2 edges per vertex an edge rule is off by O(1) per vertex: h/2
for an F homogeneous of degree h, less a variance part of the opposite sign,
which cancels it for idpi (h = -2).

Per rule, what the ER curve misses per vertex, to leading order in 1/k (end
shift + variance part for an edge rule): nk -1/(2k); pi1 -1/k; pi2 +1 - 1/2;
pi1s +1/2 - 1/8; rpi -1/2 + 1/4; hpi -1/2 + 1/8; chipi -1/4 + 1/16; idpi
-1 + 1, which leaves O(1/k).  The tests take these terms at each model's own
end-degree means and variances, ln F there plus half of each variance times
(ln F)'' in that degree, and hold that second-order reference within 1/k per
vertex of the exact mean (ER at n = 250 and 2000, BR at 200 + 800; k = 10, 20
and 40).
"""

from __future__ import annotations

import math

import numpy as np

from .indices import MULTIPLICATIVE_INDICES, _Rule, _where

# Mean degree from which the dense limits hold to the error bands stated above.
DENSE_REGIME_MEAN_DEGREE = 10.0


class UnsupportedIndexError(ValueError):
    """No dense-limit formula exists for this (model, index) pair."""


def _dense_rule(index: str) -> _Rule:
    rule = MULTIPLICATIVE_INDICES.get(index)
    if rule is None or not rule.dense_limit:
        raise UnsupportedIndexError(f"no dense-limit formula for index {index!r}")
    return rule


def _ln(rule: _Rule, *degrees: float) -> float:
    # An overflow gives a non-finite result, not a warning; a subnormal
    # intermediate would lose precision unseen, so it is an error.
    with np.errstate(all="ignore", under="raise"):
        try:
            return float(rule.ln(*map(np.float64, degrees)))
        except FloatingPointError:
            raise ValueError(f"prediction underflows at {_where(degrees)}") from None


def scaling_curve(index: str, k: float) -> float:
    """The universal collapse curve f(<k>): ER and RG ln X_prod per vertex at mean degree k.

    Defined for the eight scaling indices; the geometric-arithmetic product
    is 1 at equal degrees, so only the spread of degrees moves its mean and
    it has no curve here.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"mean degree must be finite and positive, got {k}")
    rule = _dense_rule(index)
    if rule.arity == "vertex":
        return _ln(rule, k)
    return 0.5 * k * _ln(rule, k, k)


def predict_br(index: str, d1: float, d2: float) -> float:
    """BR dense-limit value of ln X_prod / n1, from part degrees (d1, d2) = (n2*p, n1*p).

    Normalizing by n2 instead is the same formula with d1 and d2 swapped.
    Edge-based indices have bipartite forms; the vertex-based ones are
    covered solely through the equal-parts reuse of the ER curve.
    """
    if not (0.0 < d1 < math.inf and 0.0 < d2 < math.inf):
        raise ValueError(f"mean degrees must be finite and positive, got ({d1}, {d2})")
    rule = _dense_rule(index)
    if rule.arity == "edge":
        return d1 * _ln(rule, d1, d2)
    if d1 != d2:
        raise UnsupportedIndexError(
            f"no bipartite dense-limit formula for {index!r}; "
            "only the equal-part-size reuse of the ER formula is defined"
        )
    return 2.0 * scaling_curve(index, d1)


def predict_br_per_vertex(index: str, d1: float, d2: float) -> float:
    """BR prediction normalized per total vertex count instead of per part.

    ln X / n = (n1/n) * (ln X / n1), and n1/(n1+n2) = d2/(d1+d2); at equal
    part sizes this halves :func:`predict_br` and lands exactly on the ER
    curve at the same mean degree.
    """
    return predict_br(index, d1, d2) * (d2 / (d1 + d2))
