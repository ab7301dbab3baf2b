"""Outputs pinned across commits and library releases.

Exact pins depend only on integer arithmetic, PCG64, IEEE ``+ - * / <=``,
``math.fsum`` and pure-Python mpmath, and for ER/BR edges on one filtered
float64 ``log``: each geometric skip is floor(log(U) / log1p(-p)) only where
that quotient lies farther from an integer than the log's stated 1-ulp error
can move it, and is decided exactly in Python integers elsewhere (see the
``models`` docstring).  So they are the same on every machine whose ``log``
and ``log1p`` meet that bound.  A change that moves one updates the pin in the
same commit and says which output moved.  Bounded pins go through a float64
log, which may differ in the last bits between libms; they hold within twice
the error bound that the code states, so a change that moves one beyond it is
an error.
"""

import hashlib

import numpy as np
import pytest

from helpers import U, stated_ln_bound
from mtindex.cli import main
from mtindex.ensemble import read_results_csv_path
from mtindex.graph import read_edge_list_path
from mtindex.indices import MULTIPLICATIVE_NAMES, ln_multiplicative_index
from mtindex.models import (
    SeedDerivation,
    bipartite,
    erdos_renyi,
    generate,
    random_geometric,
    sample_degree_arrays,
)


@pytest.mark.parametrize("triple, seed", [
    ((0, 0, 0), 2558736989570252433),
    ((42, 3, 7), 557877198860521237),
    ((-1, 0, 0), 18159682518515982810),          # master seed masked to 64 bits
    ((2**64 + 5, 1, 2), 17647232171564759573),   # likewise, from above
])
def test_stream_seed(triple, seed):
    assert SeedDerivation(*triple).stream_seed() == seed


def test_verify_report(tmp_path, capsys):
    # The built-ins on a small corpus, plus the counterexample row.
    out = tmp_path / "report.csv"
    assert main(["verify", "--seed", "1", "--sizes", "8", "--graphs", "10",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert data.count(b"\n") == 1622
    assert hashlib.sha256(data).hexdigest() == (
        "3b6459bfb091404659d3e4a31238e471f90c08b06f8bd33504f224e062041455")


def test_verify_report_with_a_custom_function(tmp_path, capsys):
    # The bench's verify-corpus shape: three sizes, where degree histograms
    # repeat, and a custom edge function beside the built-ins.
    out = tmp_path / "report.csv"
    assert main(["verify", "--seed", "1", "--sizes", "8,16,32", "--graphs", "10",
                 "--custom-edge", "rootsum=sqrt(a+b)", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "verify: 5401 checks, 0 failures, 26 flagged (hypothesis not met, not asserted)\n")
    data = out.read_bytes()
    assert data.count(b"\n") == 5402
    assert hashlib.sha256(data).hexdigest() == (
        "195ceae2d13fcf7d2fafdfda0842ef5bb45d763fde69e4af836d758f6b1aceea")


def test_verify_report_of_the_default_corpus(tmp_path, capsys):
    # `mtindex verify --seed 1`: every built-in over sizes 8, 16 and 32 with
    # 100 graphs each, where most degrees and degree pairs repeat.
    out = tmp_path / "report.csv"
    assert main(["verify", "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "verify: 48601 checks, 0 failures, 214 flagged (hypothesis not met, not asserted)\n")
    data = out.read_bytes()
    assert data.count(b"\n") == 48602
    assert hashlib.sha256(data).hexdigest() == (
        "665cdc684039789ae49b10b48707f96ff0302513bbd59e8a8c8193788bb9bfbb")


def _digest_dir(path):
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


_GENERATE = {
    "er": ["--model", "er", "--n", "40", "--p", "0.05,0.2"],
    # r = 1/8 and 1/4 sit on cell-side boundaries: g = 7 and 3, not 8 and 4.
    "rg": ["--model", "rg", "--n", "64", "--r", "0.125,0.25"],
    # n1 != n2, so a cross-pair offset split by the wrong part size shows.
    "br": ["--model", "br", "--n1", "12", "--n2", "20", "--p", "0.1,0.3"],
}


def _generate(out, model, capsys):
    """The pinned edge lists: two points, two replicas each."""
    assert main(["generate", *_GENERATE[model], "--replicas", "2", "--seed", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return sorted(out.iterdir())


@pytest.mark.parametrize("model, digest", [
    ("er", "fd6ecb2c0cfd4a7d5015d380417a63a3a32fd6bf792808d61696215992359b75"),
    ("rg", "ff3fbff580888cfe01710b2ff5259439836e3c290168fb7a33689274f1f1fd03"),
    ("br", "99353bdd8a4ea67d803745e0bf8a0910b96da94c5c008b7d10aeb81cba993747"),
], ids=["er", "rg", "br"])
def test_generate_edge_lists(tmp_path, capsys, model, digest):
    assert len(_generate(tmp_path, model, capsys)) == 4
    assert _digest_dir(tmp_path) == digest


# ln X of the nine multiplicative built-ins (in MULTIPLICATIVE_NAMES order) on
# each pinned edge list, in file-name order.
_GENERATED_LN = {
    "er": [
        [22.469520363749826, 44.93904072749965, 71.84383224044218, 65.76248767448499,
         -35.921916120221084, -38.729747632647125, -32.881243837242494, -34.97234285972882,
         -2.8078315124260333],
        [20.690183414520334, 41.38036682904067, 60.6842558824411, 54.613190249892405,
         -30.34212794122055, -31.73933329141422, -27.306595124946206, -32.831228424575635,
         -1.397205350193669],
        [80.86879721261616, 161.73759442523232, 650.8570524461613, 435.90731883715347,
         -325.4285262230807, -327.7763586698019, -217.95365941857673, -533.6916297202108,
         -2.3478324467212346],
        [71.16985178544368, 142.33970357088737, 500.57164232804354, 344.1745670288873,
         -250.2858211640218, -254.7585807366544, -172.08728351444367, -394.68815483376824,
         -4.472759572632631],
    ],
    "rg": [
        [62.990624007514725, 125.98124801502945, 257.8865534141698, 199.4343395516611,
         -128.9432767070849, -131.5059158567865, -99.71716977583056, -180.410750569097,
         -2.5626391497015866],
        [46.337757608618105, 92.67551521723621, 131.14179376176338, 115.3900887743834,
         -65.57089688088169, -66.86978613518725, -57.6950443871917, -77.7128535818554,
         -1.298889254305553],
        [142.09000044397385, 284.1800008879477, 1522.448895984431, 987.2516826496008,
         -761.2244479922155, -765.4445848704181, -493.6258413248004, -1284.3311972667404,
         -4.220136878202656],
        [140.4669718099233, 280.9339436198466, 1433.811521423595, 935.3012664184529,
         -716.9057607117975, -721.8119348059897, -467.65063320922644, -1201.5674823469108,
         -4.906174094192008],
    ],
    "br": [
        [10.632773779711947, 21.265547559423894, 25.659996714096334, 28.25494682744654,
         -12.829998357048163, -13.698856035687689, -14.127473413723271, -7.895412340753705,
         -0.868857678639523],
        [9.534161491043838, 19.068322982087675, 27.909337292571564, 29.151034852003175,
         -13.954668646285782, -15.28809124080427, -14.57551742600159, -9.265697077702013,
         -1.3334225945184868],
        [47.65641620918584, 95.31283241837168, 260.69103390295135, 188.57345934014035,
         -130.34551695147567, -134.50797925646464, -94.28672967007016, -191.47792592441834,
         -4.162462304988977],
        [34.80954098178974, 69.61908196357948, 166.30149371422377, 127.20243425643606,
         -83.15074685711188, -87.69304496451917, -63.601217128218025, -111.09063923570434,
         -4.542298107407289],
    ],
}


@pytest.mark.parametrize("model", list(_GENERATE))
def test_generated_graph_indices(tmp_path, capsys, model):
    # The pin and the value now each lie within the stated bound of the exact
    # ln X, so within twice that bound of each other.
    paths = _generate(tmp_path, model, capsys)
    for path, pinned in zip(paths, _GENERATED_LN[model], strict=True):
        g = read_edge_list_path(path)
        for kind, want in zip(MULTIPLICATIVE_NAMES, pinned, strict=True):
            got = ln_multiplicative_index(g, kind).value
            assert abs(got - want) <= 2.0 * stated_ln_bound(g, kind), (path.name, kind)


# One point per model; replicas 0 and 1 of seed triple (7, 1, r).
_DEGREE_POINTS = {
    "er": erdos_renyi(250, 0.08),
    "rg": random_geometric(250, 0.17),
    "br": bipartite(100, 150, 0.16),
}

_DEGREE_DIGESTS = {
    "er": ["557232d12b21fad45848b6c5e2fa2f685d564504b537332712567f9f723da671",
           "8865b5d429a433635d958438eef3df854ab4441df5bbf9a5c8f0272cd5ca154a"],
    "rg": ["5131fa985a2d1c96c49ea70a60b019d78dbeb4dde4faa74fdc4521fdcfab8d45",
           "e8f550c40dcee6dda49a9631c2ce060e269d50b320f9c06b0c9669ce4b72993e"],
    "br": ["3de9062e9b5698fab3709db739c5eb184494859251471b60198faa6a623dcdc6",
           "6f2f0fc9996985b09bc822134baa14c131836a73694ae7317a506ad34c78ab0a"],
}


@pytest.mark.parametrize("model", list(_DEGREE_POINTS))
def test_sampled_degree_arrays(model):
    # sha256 of (deg, d_u, d_v) as little-endian int64, concatenated.
    digests = []
    for replica in (0, 1):
        rng = SeedDerivation(7, 1, replica).generator()
        arrays = sample_degree_arrays(_DEGREE_POINTS[model], rng)
        data = b"".join(np.asarray(a, dtype="<i8").tobytes() for a in arrays)
        digests.append(hashlib.sha256(data).hexdigest())
    assert digests == _DEGREE_DIGESTS[model]


# The columns of a sweep CSV that go through numpy's float64 log are cut; the
# rest come from integer and IEEE operations only.
_LOG_COLUMNS = {"mean_ln", "sem", "mean_ln_over_n"}

# At n = 250 and 50 replicas a point with <k> near 2 is three chunks and one
# near 20 is thirteen, so a chunk plan that loses a replica shows in
# degenerate or mean_k_empirical.
_SWEEPS = {
    "er": ["--model", "er", "--n", "250", "--p", "0.008,0.08"],
    "rg": ["--model", "rg", "--n", "250", "--r", "0.05,0.17"],
    "br": ["--model", "br", "--n1", "100", "--n2", "150", "--p", "0.02,0.16"],
}

_SWEEP_DIGESTS = {
    ("er", "exclude"): "ff47054b9078fdbcdfb0e88fffebf898121305615b783aa10742c1514a9f305c",
    ("er", "logzero"): "d5e7711bc10b2c0f9306980df5c347824a0a4e851ac9e90994d87fc7fffd24d1",
    ("rg", "exclude"): "fcdff1a5eec7c69b7d8f72ae017afff8b1ce71bd4d5d267c07526b2752928cee",
    ("rg", "logzero"): "9d7da6def10e969f5d027276d525854f10d7eb048590ec90c7a8f76d2f817ce1",
    ("br", "exclude"): "1fc52c500592a712833083c0295542a28bb3eda4a0764f48157c7e36cd12cdac",
    ("br", "logzero"): "de67a56fe425ada04fb316ed22e7992eed091d49990882e71802e80cd4c78016",
}


@pytest.mark.parametrize("policy", ["exclude", "logzero"])
@pytest.mark.parametrize("model", list(_SWEEPS))
def test_sweep_exact_columns(tmp_path, model, policy):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *_SWEEPS[model], "--index", "nk,pi2,gapi", "--budget", "12500",
                 "--seed", "7", "--policy", policy, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in _LOG_COLUMNS]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_DIGESTS[model, policy]


_SWEEP_INDICES = ("nk", "pi2", "gapi")

# (mean_ln, sem) of each row of the exclude sweeps above: points outer, the
# indices nk, pi2, gapi inner.
_SWEEP_LOG = {
    "er": [(150.9801526066064, 1.8912533986184665), (492.1202013343663, 8.105675847304958),
           (-15.551304577035834, 0.2553925500173486), (742.6441777570899, 0.7472757856630634),
           (15058.618181492751, 59.52118079274351), (-27.15205212794652, 0.3265550700257368)],
    "rg": [(136.32566160897085, 1.8678927839379054), (425.82170581463134, 9.327000172787137),
           (-6.23495392162853, 0.09613402803855445), (728.2629013100633, 1.1102147069274422),
           (14602.86698338646, 104.51540566723895), (-22.232807787875046, 0.3722312413039258)],
    "br": [(186.1060225987634, 1.8498450423401298), (680.3321095011584, 9.592244977894802),
           (-20.858385454261576, 0.2809442618758214), (728.2337241606281, 0.7493696068871303),
           (14424.777962854798, 54.29214965307872), (-71.20022350289071, 0.2788019408260854)],
}


@pytest.mark.parametrize("model", list(_SWEEPS))
def test_sweep_log_columns(tmp_path, model):
    # Each replica's ln X here and in the pinned run lies within its stated
    # bound b of the exact value.  So the means differ by at most 2 mean(b),
    # and the sems, each |x - mean| / sqrt(R (R - 1)) in the 2-norm, by at most
    # 2 |b| / sqrt(R (R - 1)); each side also rounds a few times, 8u relative.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *_SWEEPS[model], "--index", ",".join(_SWEEP_INDICES),
                 "--budget", "12500", "--seed", "7", "--out", str(out)]) == 0
    rows = read_results_csv_path(out)
    for i, (row, (mean, sem)) in enumerate(zip(rows, _SWEEP_LOG[model], strict=True)):
        point_id = i // len(_SWEEP_INDICES)
        b = np.array([stated_ln_bound(generate(row.spec, SeedDerivation(7, point_id, r)),
                                      row.index) for r in range(row.replicas)])
        r = row.replicas
        assert abs(row.mean_ln - mean) <= 2.0 * b.mean() + 8.0 * U * abs(mean), (i, row.index)
        assert abs(row.sem - sem) <= (2.0 * np.sqrt((b * b).sum() / (r * (r - 1)))
                                      + 8.0 * U * sem), (i, row.index)
