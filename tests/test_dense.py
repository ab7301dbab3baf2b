import math

import numpy as np
import pytest
from helpers import exact_mean_ln, second_order_mean_ln
from mpmath import mp

from mtindex.dense import (
    DENSE_REGIME_MEAN_DEGREE,
    UnsupportedIndexError,
    predict_br,
    predict_br_per_vertex,
    scaling_curve,
)
from mtindex.indices import MULTIPLICATIVE_INDICES
from mtindex.models import bipartite, erdos_renyi

# The indices whose mean scales with <k>: every built-in but gapi.
SCALING = [name for name, rule in MULTIPLICATIVE_INDICES.items() if rule.dense_limit]

def test_frozen_examples():
    assert scaling_curve("nk", 10.0) == pytest.approx(math.log(10.0), abs=1e-12)
    assert scaling_curve("chipi", 4.0) == pytest.approx(-3.0 * math.log(2.0), abs=1e-12)
    assert scaling_curve("idpi", 10.0) == pytest.approx(
        5.0 * math.log(2.0) - 10.0 * math.log(10.0), abs=1e-12)
    assert predict_br("pi2", 6.0, 6.0) == pytest.approx(12.0 * math.log(6.0), abs=1e-12)


@pytest.mark.parametrize("idx", ("pi2", "pi1s", "rpi", "hpi", "chipi", "idpi"))
def test_br_reduces_to_er_at_equal_parts(idx):
    for d in range(1, 51):
        d = float(d)
        assert abs(predict_br_per_vertex(idx, d, d) - scaling_curve(idx, d)) <= 1e-12


def test_br_vertex_indices_only_at_equal_parts():
    assert predict_br("nk", 8.0, 8.0) == pytest.approx(2.0 * math.log(8.0), abs=1e-12)
    assert predict_br_per_vertex("pi1", 8.0, 8.0) == pytest.approx(
        scaling_curve("pi1", 8.0), abs=1e-12)
    with pytest.raises(UnsupportedIndexError):
        predict_br("nk", 8.0, 9.0)


def test_br_unequal_parts_formula():
    # ln Pi2 / n1 = d1 * ln(d1 * d2)
    assert predict_br("pi2", 3.0, 12.0) == pytest.approx(3.0 * math.log(36.0), abs=1e-12)
    # per-vertex uses n1/(n1+n2) = d2/(d1+d2)
    assert predict_br_per_vertex("pi2", 3.0, 12.0) == pytest.approx(
        3.0 * math.log(36.0) * 12.0 / 15.0, abs=1e-12)


def test_sign_structure_on_grid():
    for k in [1.0 + 0.5 * i for i in range(199)]:
        for idx in ("nk", "pi1", "pi2", "pi1s"):
            assert scaling_curve(idx, k) >= -1e-12
        for idx in ("rpi", "hpi", "chipi"):
            assert scaling_curve(idx, k) <= 1e-12


def test_errors():
    with pytest.raises(ValueError):
        scaling_curve("nk", 0.0)
    with pytest.raises(ValueError):
        predict_br("pi2", -1.0, 2.0)
    with pytest.raises(UnsupportedIndexError):
        scaling_curve("gapi", 10.0)
    with pytest.raises(UnsupportedIndexError):
        predict_br("gapi", 5.0, 5.0)
    assert DENSE_REGIME_MEAN_DEGREE == 10.0


def test_unsupported_names_share_one_message():
    for name in ("gapi", "m1", "nope"):
        message = f"no dense-limit formula for index {name!r}"
        with pytest.raises(UnsupportedIndexError, match=message):
            scaling_curve(name, 10.0)
        with pytest.raises(UnsupportedIndexError, match=message):
            predict_br(name, 5.0, 5.0)
    assert SCALING == ["nk", "pi1", "pi2", "pi1s", "rpi", "hpi", "chipi", "idpi"]


def _close(value, exact):
    return abs(value - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


@pytest.mark.parametrize("name", SCALING)
def test_dense_limits_match_the_rule_in_200_bits(name):
    # The mean-field forms of the module docstring, from the exact rule:
    # ER/RG ln F(k) or (k/2) ln F(k, k), BR d1 ln F(d1, d2) or 2 ln F(d).
    rule = MULTIPLICATIVE_INDICES[name]
    degrees = np.geomspace(1e-3, 1e3, 61).tolist()
    with mp.workprec(200):
        def ln_f(*d):
            return mp.log(rule.mp(mp, *map(mp.mpf, d)))

        for k in degrees:
            exact = ln_f(k) if rule.arity == "vertex" else mp.mpf(k) / 2 * ln_f(k, k)
            assert _close(scaling_curve(name, k), exact), k
        pairs = [(d, d) for d in degrees] if rule.arity == "vertex" else [
            (d1, d2) for d1 in degrees[::3] for d2 in degrees[::3]]
        for d1, d2 in pairs:
            exact = 2 * ln_f(d1) if rule.arity == "vertex" else d1 * ln_f(d1, d2)
            assert _close(predict_br(name, d1, d2), exact), (d1, d2)
            per_vertex = exact * d2 / (mp.mpf(d1) + d2)
            assert _close(predict_br_per_vertex(name, d1, d2), per_vertex), (d1, d2)


def _within_stated_error(name, k, gap):
    # The bands of the dense module docstring, for exact minus predicted.
    if name in ("nk", "pi1", "idpi"):
        return -1.2 / k <= gap <= 0.0
    if name in ("pi2", "pi1s"):
        return 0.0 < gap <= 0.55
    return -0.55 <= gap < 0.0


@pytest.mark.parametrize("k", [10.0, 20.0, 40.0])
def test_dense_limits_lie_within_their_stated_error(k):
    # Against the exact finite-n means of ER at n = 250 and BR at 125 + 125,
    # per total vertex.
    er, br = erdos_renyi(250, k / 249), bipartite(125, 125, k / 125)
    d = br.n2 * br.p
    for name in SCALING:
        er_gap = exact_mean_ln(er, name) / er.n - scaling_curve(name, k)
        br_gap = exact_mean_ln(br, name) / br.n - predict_br_per_vertex(name, d, d)
        assert _within_stated_error(name, k, er_gap), ("er", name, er_gap)
        assert _within_stated_error(name, k, br_gap), ("br", name, br_gap)


@pytest.mark.parametrize("k", [10.0, 20.0, 40.0])
@pytest.mark.parametrize("make", [
    lambda k: erdos_renyi(250, k / 249),
    lambda k: erdos_renyi(2000, k / 1999),
    lambda k: bipartite(200, 800, k * 1000 / (2 * 200 * 800)),
], ids=["er-250", "er-2000", "br-200-800"])
def test_second_order_references_lie_within_1_over_k_of_the_exact_means(make, k):
    # What the first-order curve misses, per rule (dense module docstring):
    # the end-degree shift and the degrees' variance.  At mean degree k the
    # reference is within c/k per vertex of the exact finite-n mean, c = 1.
    spec = make(k)
    for name in SCALING:
        residual = (second_order_mean_ln(spec, name) - exact_mean_ln(spec, name)) / spec.n
        assert abs(residual) <= 1.0 / k, (name, residual)
