"""Outputs pinned across commits and library releases.

Exact pins depend only on integer arithmetic, PCG64, IEEE ``+ - * / <=``,
``math.fsum`` and pure-Python mpmath, so they are the same on every machine.
A change that moves one updates the pin in the same commit and says which
output moved.  Bounded pins go through a float64 log, which may differ in
the last bits between libms; they hold within twice the error bound that
the code states, so a change that moves one beyond it is an error.
"""

import hashlib

import numpy as np
import pytest

from helpers import stated_ln_bound
from mtindex.cli import main
from mtindex.graph import read_edge_list_path
from mtindex.indices import MULTIPLICATIVE_NAMES, ln_multiplicative_index
from mtindex.models import (
    SeedDerivation,
    bipartite,
    erdos_renyi,
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
        "b323bd1dc3d5839f7978f57fb530a921d1a3ab694e573b49a3654f289803e328")


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
    ("er", "d491619e81b661a98dfcdedc95f115ae5f5e377194f57f976fcf925c374d3eed"),
    ("rg", "ff3fbff580888cfe01710b2ff5259439836e3c290168fb7a33689274f1f1fd03"),
    ("br", "b138417d73abf6ab0ad04c0ec5399620b86c9170192cc3af5372de4c16a4ba3e"),
], ids=["er", "rg", "br"])
def test_generate_edge_lists(tmp_path, capsys, model, digest):
    assert len(_generate(tmp_path, model, capsys)) == 4
    assert _digest_dir(tmp_path) == digest


# ln X of the nine multiplicative built-ins (in MULTIPLICATIVE_NAMES order) on
# each pinned edge list, in file-name order.
_GENERATED_LN = {
    "er": [
        [12.64767680025421, 25.29535360050842, 35.616728781151274, 36.086961007952006,
         -17.808364390575637, -19.45142867451332, -18.043480503976003, -13.159747426059901,
         -1.6430642839376857],
        [30.029600828771652, 60.059201657543305, 107.2771109514197, 90.26609335721572,
         -53.63855547570985, -56.99502869033834, -45.13304667860786, -62.31469978590194,
         -3.356473214628488],
        [84.40113020341052, 168.80226040682103, 778.8565533266997, 516.1428051602444,
         -389.42827666334983, -394.842048562254, -258.0714025801222, -637.2605202624394,
         -5.413771898904265],
        [78.31912344413558, 156.63824688827117, 621.1441900082378, 419.60691313473745,
         -310.5720950041189, -315.63483605074566, -209.80345656736873, -498.14866672980753,
         -5.062741046626725],
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
        [6.3561076606958915, 12.712215321391783, 17.682028620967785, 20.184040738658723,
         -8.841014310483892, -9.786833030259544, -10.092020369329362, -3.9106058044581946,
         -0.9458187197756509],
        [14.609335306277664, 29.21867061255533, 42.887998660341516, 41.10556447169744,
         -21.443999330170758, -23.083737777138865, -20.55278223584872, -19.21281366216888,
         -1.6397384469681033],
        [44.32795411586544, 88.65590823173088, 225.54133273790703, 166.02160098745475,
         -112.77066636895351, -116.80815116769864, -83.01080049372737, -161.63231113810133,
         -4.0374847987451234],
        [42.5845682309216, 85.1691364618432, 210.92968593464826, 156.4249131707776,
         -105.46484296732413, -109.2909048927013, -78.2124565853888, -150.31865270345202,
         -3.8260619253771693],
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
    "er": ["fe52561b5ea8802a83380442eeea16c88d4b95176f07d92466f77862c846e760",
           "15d7f02add699effe32b3ff420b173b702f6796e15453fa5fbec82978229e393"],
    "rg": ["5131fa985a2d1c96c49ea70a60b019d78dbeb4dde4faa74fdc4521fdcfab8d45",
           "e8f550c40dcee6dda49a9631c2ce060e269d50b320f9c06b0c9669ce4b72993e"],
    "br": ["69b8e64922257594432c1c9ebebc42fa3a3e47e27b5fe7048d3e2ba54e590b43",
           "d8d6df250948fda18985aa2e5c21f74ef9fc521bba4a47cd5d86eefa7f262a60"],
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
    ("er", "exclude"): "3c428d566336a7a537f6da7929237fc8a46153ce7ba8847945f31c4fe3744d3e",
    ("er", "logzero"): "a72cfb06e23f51b19574664365db8309c20fae3c716639c1cc394d327a41f92d",
    ("rg", "exclude"): "fcdff1a5eec7c69b7d8f72ae017afff8b1ce71bd4d5d267c07526b2752928cee",
    ("rg", "logzero"): "9d7da6def10e969f5d027276d525854f10d7eb048590ec90c7a8f76d2f817ce1",
    ("br", "exclude"): "9f63756286ca57c1979154efdcfaa56b631e9ea19e44f33ce29df8ce39100073",
    ("br", "logzero"): "4004be2e28eb107570c957896f9f7e2ac0261a5744996824ca181a59e6b06cb9",
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
