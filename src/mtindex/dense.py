"""Closed-form dense-limit predictions for mean log-indices.

In the dense regime every degree concentrates at the mean degree, which turns
each multiplicative index into a closed form in <d> alone.  The ER and RG
families share one formula set (only the definition of <d> differs between
the models); bipartite networks have their own two-degree forms, normalized
per part size, which reduce to the ER set at equal part sizes.

Predictions are defined for every finite mean degree > 0 but are only
expected to describe ensemble data from :data:`DENSE_REGIME_MEAN_DEGREE`
upward.
"""

from __future__ import annotations

import math

# Mean degree from which the closed forms track ensemble averages well.
DENSE_REGIME_MEAN_DEGREE = 10.0

_LN2 = math.log(2.0)


class UnsupportedIndexError(ValueError):
    """No dense-limit formula exists for this (model, index) pair."""


def scaling_curve(index: str, k: float) -> float:
    """The universal collapse curve f(<k>): ER and RG ln X_prod per vertex at mean degree k.

    Defined for the eight scaling indices; the geometric-arithmetic product
    does not scale with mean degree and has no curve here.
    """
    if not 0.0 < k < math.inf:
        raise ValueError(f"mean degree must be finite and positive, got {k}")
    if index == "nk":
        return math.log(k)
    if index == "pi1":
        return 2.0 * math.log(k)
    if index == "pi2":
        return k * math.log(k)
    if index == "pi1s":
        return 0.5 * k * math.log(2.0 * k)
    if index in ("rpi", "hpi"):
        return -0.5 * k * math.log(k)
    if index == "chipi":
        return -(_LN2 / 4.0) * k - 0.25 * k * math.log(k)
    if index == "idpi":
        return (_LN2 / 2.0) * k - k * math.log(k)
    raise UnsupportedIndexError(f"no dense-limit formula for index {index!r}")


def predict_br(index: str, d1: float, d2: float) -> float:
    """BR dense-limit value of ln X_prod / n1, from part degrees (d1, d2) = (n2*p, n1*p).

    Normalizing by n2 instead is the same formula with d1 and d2 swapped.
    Only the six edge-based indices have bipartite forms; the two vertex-based
    ones are covered solely through the equal-parts reuse of the ER formulas.
    """
    if not (0.0 < d1 < math.inf and 0.0 < d2 < math.inf):
        raise ValueError(f"mean degrees must be finite and positive, got ({d1}, {d2})")
    if index == "pi2":
        return d1 * (math.log(d1) + math.log(d2))
    if index == "pi1s":
        return d1 * math.log(d1 + d2)
    if index == "rpi":
        return -0.5 * d1 * (math.log(d1) + math.log(d2))
    if index == "hpi":
        return d1 * (_LN2 - math.log(d1 + d2))
    if index == "chipi":
        return -0.5 * d1 * math.log(d1 + d2)
    if index == "idpi":
        return d1 * math.log(1.0 / (d1 * d1) + 1.0 / (d2 * d2))
    if index in ("nk", "pi1"):
        if d1 != d2:
            raise UnsupportedIndexError(
                f"no bipartite dense-limit formula for {index!r}; "
                "only the equal-part-size reuse of the ER formula is defined"
            )
        return 2.0 * scaling_curve(index, d1)
    raise UnsupportedIndexError(f"no dense-limit formula for index {index!r}")


def predict_br_per_vertex(index: str, d1: float, d2: float) -> float:
    """BR prediction normalized per total vertex count instead of per part.

    ln X / n = (n1/n) * (ln X / n1), and n1/(n1+n2) = d2/(d1+d2); at equal
    part sizes this halves :func:`predict_br` and lands exactly on the ER
    curve at the same mean degree.
    """
    return predict_br(index, d1, d2) * (d2 / (d1 + d2))

