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
