"""The ablation ladder on a tiny synthetic plan, its failure path and reports."""
from dataclasses import fields, replace

import pytest

from clcp import zeval
from clcp.encoders import ModelConfig
from clcp.ingest import SamplePlan
from clcp.synth import generate_family
from clcp.zeval import (
    DELTAS,
    FAMILIES,
    EvalResult,
    render_ablation_table,
    render_results_table,
    results_to_csv,
    run_ablations,
)

PLAN = SamplePlan((8, 12), (6, 8), seed=3)
# text_max_len is off its default, so a dropped base field shows
BASE = ModelConfig(image_len=64, channels=(4, 4, 4), embed_dim=8, text_vocab=64,
                   text_embed=8, text_heads=2, text_ff=16, text_max_len=7,
                   max_epochs=1, patience=1, batch_size=8, val_fraction=0.0)


@pytest.fixture(scope="module")
def records():
    train, heldout = generate_family(40, 30, seed=0)
    return train + heldout


@pytest.fixture(scope="module")
def ablation(records):
    """run_ablations on BASE, with the config of every ladder call recorded."""
    configs = []
    run_ladder = zeval.run_ladder

    def recording_run_ladder(records, plan, configs_, **kwargs):
        configs.extend(configs_)
        return run_ladder(records, plan, configs_, **kwargs)

    zeval.run_ladder = recording_run_ladder
    try:
        cells, flags = run_ablations(records, PLAN, base_config=BASE)
    finally:
        zeval.run_ladder = run_ladder
    return cells, flags, configs


def test_one_result_per_cell_and_regime(ablation):
    cells, flags, _ = ablation
    results = [r for c in cells for r in c.cells]
    keys = {(r.config_id, r.train_size, r.regime) for r in results}
    expected = len(FAMILIES) * len(DELTAS) * len(PLAN.train_sizes) * 2
    assert len(results) == len(keys) == expected
    assert not [r.failed for r in results if r.failed]
    assert all(r.L == PLAN.test_sizes[0] for r in results if r.regime == "fixed")
    assert set(flags) == {"pool_removal_hurts", "init_removal_hurts",
                          "bn_addition_hurts", "lp_minus_pool_below_chance"}


def test_base_config_reaches_every_cell(ablation):
    _, _, configs = ablation
    assert len(configs) == len(FAMILIES) * len(DELTAS)
    shared = [f.name for f in fields(ModelConfig) if f.name not in zeval._CELL_FIELDS]
    for config in configs:
        assert config.text_max_len == 7
        assert all(getattr(config, n) == getattr(BASE, n) for n in shared)


def test_shared_test_list_scored_once_per_cell(records, monkeypatch):
    sizes = []
    evaluate_pairs = zeval.evaluate_pairs

    def counting_evaluate_pairs(model, vocabulary, text_vocab, pairs, direction):
        sizes.append(len(pairs))
        return evaluate_pairs(model, vocabulary, text_vocab, pairs, direction)

    monkeypatch.setattr(zeval, "evaluate_pairs", counting_evaluate_pairs)
    results = zeval.run_ladder(records, PLAN, [BASE])
    fixed, growing = PLAN.test_sizes
    # the first rung's growing size is the fixed size: one evaluation, two rows
    assert sizes == [fixed, fixed, growing]
    first = [r for r in results if r.train_size == PLAN.train_sizes[0]]
    assert [r.regime for r in first] == ["fixed", "growing"]
    assert replace(first[1], regime="fixed") == first[0]


def test_geometry_that_cannot_fit_marks_cells_failed(records):
    too_short = ModelConfig(image_len=8, channels=(4, 4, 4), max_epochs=1, patience=1)
    cells, _ = run_ablations(records, PLAN, families=("lp", "rn"), deltas=("none",),
                             base_config=too_short)
    results = [r for c in cells for r in c.cells]
    assert len(results) == 2 * len(PLAN.train_sizes)   # one failed row per cell
    assert all("block" in r.failed for r in results)


def test_eval_result_rejects_wrong_chance_level():
    with pytest.raises(ValueError, match="ea"):
        EvalResult(L=4, correct=1, acc=0.25, ea=0.5)


def test_reports_have_one_row_per_result(ablation):
    cells, _, _ = ablation
    results = [r for c in cells for r in c.cells]
    assert len(results_to_csv(results).splitlines()) == 1 + len(results)
    assert len(render_results_table(results).splitlines()) == 2 + len(results)
    assert len(render_ablation_table(cells).splitlines()) == 2 + len(cells)
