"""Seeded training runs pinned bit for bit: loss curves and final parameters.

Covers lp/gp/rn x {none, +BN, -Pool, -Init} on a tiny config.  Any change to
layer construction order, parameter names, RNG draws or arithmetic shows up
here.  Rewrite the golden file only for an intended numeric change:
``PYTHONPATH=src python tests/test_train_golden.py``.

Regenerated when ``conv1d`` became an im2col GEMM (one ``W2 @ cols`` forward,
``g2 @ cols.T`` and ``W2.T @ g2`` backward, in place of per-offset einsums).
At these 8-channel shapes that moved the losses by at most 1.2e-7 in training
and 4.2e-7 in validation (1.2e-3 on the +BN validation losses).  The fixture
is bit-exact for one BLAS kernel selection only: small GEMMs round
differently depending on which operand is transposed, so another BLAS build
or CPU dispatch may fail it with loss differences of that size.

Regenerated again for two rounding changes.  Adam keeps its moments and
computes its update in the parameters' float32 instead of float64, and
eval-mode ``batch_norm1d`` casts the float64 running statistics to its
input's float32 instead of promoting the output to float64.  Together they
moved the losses by at most 2.4e-7 in training and 4.2e-7 in validation
(2.4e-3 on the +BN validation losses).  The batch-norm change alone moved
only the +BN validation losses, by at most 3e-7.

Regenerated again when ``conv1d``'s backward began to compute the weight
gradient from only the windows whose output gradient is nonzero, once few
are: the sum leaves out exact zeros, and BLAS blocks the shorter sum
differently.  Only cases that end in a global max pool without batch norm
reach that path (gp and rn, none and -Init).  They moved by at most 9.9e-8
in training and 4.2e-7 in validation loss; the other 8 are unchanged.

Regenerated again when the code encoder began to read only a batch's content
span plus its stages' reach (a map that flattens into the projection gets its
last column repeated back to its planned length).  The arithmetic is that of a
full-length run on fewer positions, but BLAS rounds a GEMM with fewer columns
differently.  Largest training / validation loss deltas: lp none 3.3e-8 /
4.2e-7, gp none 6.6e-8 / 3.6e-7, rn none 4.1e-8 / 2.4e-7, lp -Pool 3.3e-8 /
6.0e-8, gp -Pool 3.3e-8 / 6.0e-8, rn -Pool 2.1e-8 / 1.2e-7, rn -Init 0 /
6.0e-8; lp -Init moved its parameters only.  +BN trains at full length, so lp
and gp +BN moved only in their eval-mode validation losses (6.0e-8 and 1.2e-7),
with unchanged parameters.  gp -Init and rn +BN are unchanged.

Regenerated again when training-mode batch norm began to run on the content
span too: each ``batch_norm1d`` counts its last column, which reads only
padding, once more for every column cut from its input.  Only the three +BN
cases moved; the other 9 are byte-identical.  Largest training / validation
loss deltas: lp +BN 3.2e-7 / 5.8e-4, gp +BN 8.6e-8 / 2.7e-4, rn +BN 3.3e-8 /
2.1e-4.  The validation losses move this much at every rounding change because
a conv bias that feeds batch norm has an exact gradient of 0: in float32 it
gets rounding noise, which Adam scales to steps of up to ``lr``, so those
biases drift (to 2.7e-3 to 6.1e-3 after these 8 steps), and eval-mode batch
norm's running mean lags behind the drift.
"""
import hashlib
import json
from pathlib import Path

import pytest

from clcp.encoders import apply_ablation, config_for_family
from clcp.synth import generate_pairs
from clcp.training import train

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "train_curves.json"
CASES = [(family, delta) for family in ("lp", "gp", "rn")
         for delta in ("none", "+BN", "-Pool", "-Init")]


def run_case(family, delta):
    cfg = apply_ablation(
        config_for_family(family, 3, image_len=96, channels=(8, 8, 8), embed_dim=16,
                          max_epochs=2, val_fraction=0.1, batch_size=16, seed=0),
        delta)
    out = train(generate_pairs(64, seed=0), cfg)
    digest = hashlib.sha256()
    for name, param in out.model.named_params():
        digest.update(name.encode("utf-8"))
        digest.update(param.data.tobytes())
    return {"train_loss": [m["train_loss"] for m in out.metrics],
            "val_loss": [m["val_loss"] for m in out.metrics],
            "params_sha256": digest.hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("family,delta", CASES)
def test_training_matches_golden(golden, family, delta):
    assert run_case(family, delta) == golden[f"{family}{delta}"]


if __name__ == "__main__":
    table = {f"{family}{delta}": run_case(family, delta) for family, delta in CASES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
