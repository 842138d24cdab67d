"""Seeded training runs pinned bit for bit: loss curves and final parameters.

Covers lp/gp/rn x {none, +BN, -Pool, -Init} on a tiny config.  Any change to
layer construction order, parameter names, RNG draws or arithmetic shows up
here.  Rewrite the golden file only for an intended numeric change:
``PYTHONPATH=src python tests/test_train_golden.py``.

A second fixture, ``train_curves_f64.json``, pins the losses of the same 12
runs in float64: the test casts every parameter and image to float64 before
training, and ``ndnn`` keeps that dtype through every op.  There a BLAS kernel
choice or a reordered sum moves a loss by about 1e-15, where float32 moves it
by 1e-7, so the losses are checked to ``F64_LOSS_ATOL`` and any CPU reproduces
them.  A change that claims to move float32 rounding only must leave this
fixture passing unchanged; a change to the arithmetic regenerates it, with
``PYTHONPATH=src python tests/test_train_golden.py float64``, and names its
reason here.  +BN validation losses get the looser ``F64_BN_VAL_ATOL``: a conv
bias that feeds batch norm has an exact gradient of 0, Adam turns its rounding
noise into steps of about ``lr * 1e-8``, and eval-mode batch norm's running
mean lags that drift.

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

Regenerated again when ``conv1d``'s backward went back to one path: the
weight gradient again sums every window, including the exact zeros that a
global max pool sends back, and BLAS blocks that longer sum differently.
Only the four cases that had reached the live-window sum moved; the other 8
are byte-identical.  Largest training / validation loss deltas: gp none
5.3e-8 / 3.0e-7, gp -Init 6.6e-8 / 6.0e-8, rn none 6.6e-8 / 2.4e-7, rn -Init
3.3e-8 / 0.

Regenerated again, once, for two reasons.  ``Tensor.__init__`` keeps a numpy
scalar's dtype, so ``tsum`` and ``tmean`` over all axes of a float32 tensor
are float32: the CLIP loss adds its two float32 means before ``* (-0.5)``
promotes the sum, which alone moved the reported losses of all 12 cases by at
most 8.6e-8 in training and 1.2e-7 in validation, and no parameter.  And the
code encoder packs a batch's rows end to end, each cut to its own span, and
batch norm sums weighted statistics over the packed map: BLAS rounds GEMMs of
other widths differently, and the sums run in another order, which moved the
parameters of all 12.  Largest training / validation loss deltas: lp none
9.5e-8 / 3.6e-7, lp +BN 5.3e-8 / 7.7e-4, lp -Pool 1.7e-7 / 1.8e-7, lp -Init
2.2e-7 / 1.2e-7, gp none 9.9e-8 / 3.6e-7, gp +BN 1.1e-7 / 2.0e-3, gp -Pool
1.7e-7 / 1.8e-7, gp -Init 9.9e-8 / 0, rn none 6.6e-8 / 6.0e-8, rn +BN 8.6e-8 /
1.7e-3, rn -Pool 8.6e-8 / 3.6e-7, rn -Init 3.3e-8 / 6.0e-8.  The float64
fixture passed unchanged: its losses moved by at most 8.9e-16, and its +BN
validation losses by at most 1.1e-10.

Regenerated again, once, for two rounding changes.  The code encoder drops
each stage's junk columns before the next stage (``ndnn.take_columns``), so
every later GEMM runs over fewer columns, which BLAS rounds differently.  And
``ndnn.embedding``'s backward sums each id's gradient rows with one
``np.add.reduceat`` over the stably sorted ids instead of ``np.add.at``, which
alone moved all 12 cases (by at most 2.0e-7 in training and 2.9e-3 on a +BN
validation loss).  Together, the largest training / validation loss deltas:
lp none 2.6e-7 / 1.2e-7, lp +BN 2.6e-7 / 7.1e-4, lp -Pool 1.5e-7 / 1.2e-7,
lp -Init 2.0e-7 / 2.4e-7, gp none 2.0e-7 / 1.2e-7, gp +BN 4.1e-8 / 1.9e-3,
gp -Pool 1.5e-7 / 1.2e-7, gp -Init 6.6e-8 / 1.2e-7, rn none 8.2e-8 / 0,
rn +BN 0 / 3.1e-3, rn -Pool 1.3e-7 / 4.8e-7, rn -Init 6.6e-8 / 2.4e-7.  The
float64 fixture passed unchanged, also under ``OPENBLAS_CORETYPE=Haswell``:
its losses moved by at most 1.3e-15, and its +BN validation losses by at most
9.7e-11.
"""
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from clcp import training
from clcp.encoders import apply_ablation, config_for_family
from clcp.synth import generate_pairs

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATHS = {"float32": GOLDEN_DIR / "train_curves.json",
                "float64": GOLDEN_DIR / "train_curves_f64.json"}
CASES = [(family, delta) for family in ("lp", "gp", "rn")
         for delta in ("none", "+BN", "-Pool", "-Init")]
F64_LOSS_ATOL = 1e-12
F64_BN_VAL_ATOL = 1e-9


def run_case(family, delta, dtype="float32"):
    """``train`` on 64 synth pairs, with parameters and images in ``dtype``."""
    cfg = apply_ablation(
        config_for_family(family, 3, image_len=96, channels=(8, 8, 8), embed_dim=16,
                          max_epochs=2, val_fraction=0.1, batch_size=16, seed=0),
        delta)
    data = training.prepare_pairs(generate_pairs(64, seed=0), cfg)
    data.code_batch = data.code_batch.astype(dtype)

    class Model(training.CLCPModel):
        def __init__(self, *args):
            super().__init__(*args)
            for _, p in self.named_params():
                p.data = p.data.astype(dtype)

    with mock.patch.object(training, "CLCPModel", Model):
        out = training.fit(data, cfg)
    curves = {"train_loss": [m["train_loss"] for m in out.metrics],
              "val_loss": [m["val_loss"] for m in out.metrics]}
    if dtype == "float64":
        return curves
    digest = hashlib.sha256()
    for name, param in out.model.named_params():
        digest.update(name.encode("utf-8"))
        digest.update(param.data.tobytes())
    return {**curves, "params_sha256": digest.hexdigest()}


def _golden(dtype):
    return json.loads(GOLDEN_PATHS[dtype].read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden():
    return _golden("float32")


@pytest.fixture(scope="module")
def golden_f64():
    return _golden("float64")


@pytest.mark.parametrize("family,delta", CASES)
def test_training_matches_golden(golden, family, delta):
    assert run_case(family, delta) == golden[f"{family}{delta}"]


@pytest.mark.parametrize("family,delta", CASES)
def test_float64_training_matches_golden(golden_f64, family, delta):
    got, want = run_case(family, delta, "float64"), golden_f64[f"{family}{delta}"]
    for key in ("train_loss", "val_loss"):
        atol = F64_BN_VAL_ATOL if (delta, key) == ("+BN", "val_loss") else F64_LOSS_ATOL
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=atol, err_msg=key)


if __name__ == "__main__":
    dtype = sys.argv[1] if len(sys.argv) > 1 else "float32"
    table = {f"{family}{delta}": run_case(family, delta, dtype) for family, delta in CASES}
    GOLDEN_PATHS[dtype].write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
