"""Outputs pinned across commits and library releases.

These values depend only on integer arithmetic, PCG64, IEEE ``+ - * / <=``,
``math.fsum`` and pure-Python mpmath, so they are the same on every machine.
A change that moves one updates the pin in the same commit and says which
output moved.
"""

import hashlib

import pytest

from mtindex.cli import main
from mtindex.models import SeedDerivation


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


@pytest.mark.parametrize("model_flags, digest", [
    (["--model", "er", "--n", "40", "--p", "0.05,0.2"],
     "d491619e81b661a98dfcdedc95f115ae5f5e377194f57f976fcf925c374d3eed"),
    # r = 1/8 and 1/4 sit on cell-side boundaries: g = 7 and 3, not 8 and 4.
    (["--model", "rg", "--n", "64", "--r", "0.125,0.25"],
     "ff3fbff580888cfe01710b2ff5259439836e3c290168fb7a33689274f1f1fd03"),
    # n1 != n2, so a cross-pair offset split by the wrong part size shows.
    (["--model", "br", "--n1", "12", "--n2", "20", "--p", "0.1,0.3"],
     "b138417d73abf6ab0ad04c0ec5399620b86c9170192cc3af5372de4c16a4ba3e"),
], ids=["er", "rg", "br"])
def test_generate_edge_lists(tmp_path, capsys, model_flags, digest):
    # Two points, two replicas each.
    assert main(["generate", *model_flags, "--replicas", "2", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(list(tmp_path.iterdir())) == 4
    assert _digest_dir(tmp_path) == digest


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
    ("er", "exclude"): "8b21f21dfd77513c7b55c77d6f9e70500276f4b5b2a9a25addb2f25577e5973a",
    ("er", "logzero"): "82110e180c757ce1dabb508885e9f04823857c8652645086b012b535bcd6d576",
    ("rg", "exclude"): "3919cd2bac736cf7d67ce8380e798859ea8df04bb2bb1af825530ecbb007789e",
    ("rg", "logzero"): "0da8a8acefe9ed4f0c5e02d7bdeef1dd23f3f4741ecf5837528e209848877d7f",
    ("br", "exclude"): "cfbe2800b940f8b4a60a3fb8e265c94f7e9097ca995213076d75e8a158883074",
    ("br", "logzero"): "66bcb4c2aae0458edddaf10bf5faaba98696eb64ea0c11619f929b6ad589ed13",
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
