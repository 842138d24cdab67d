"""Zero-shot matching and the ablation ladder on a tiny synthetic plan."""
from dataclasses import fields, replace

import numpy as np
import pytest

from clcp import zeval
from clcp.encoders import ModelConfig, apply_ablation, network_key
from clcp.ingest import SamplePlan, sample_split
from clcp.synth import generate_family
from clcp.training import CLCPModel, prepare_pairs
from clcp.zeval import (
    DELTAS,
    FAMILIES,
    EvalResult,
    run_ablations,
    zero_shot_match,
)

PLAN = SamplePlan((8, 12), (6, 8), seed=3)
# text_max_len is off its default, so a dropped base field shows
BASE = ModelConfig(image_len=64, channels=(4, 4, 4), embed_dim=8, text_vocab=64,
                   text_embed=8, text_max_len=7, max_epochs=1, patience=1,
                   batch_size=8, val_fraction=0.0)


@pytest.fixture(scope="module")
def records():
    train, heldout = generate_family(40, 30, seed=0)
    return train + heldout


@pytest.fixture(scope="module")
def ablation(records):
    """run_ablations on BASE, with the config of every ladder call and the
    number of models trained recorded."""
    configs, fits = [], []
    run_ladder, fit = zeval.run_ladder, zeval.fit

    def recording_run_ladder(records, plan, configs_, **kwargs):
        configs.extend(configs_)
        return run_ladder(records, plan, configs_, **kwargs)

    def counting_fit(data, config):
        fits.append(config.config_id())
        return fit(data, config)

    zeval.run_ladder, zeval.fit = recording_run_ladder, counting_fit
    try:
        cells, flags = run_ablations(records, PLAN, base_config=BASE)
    finally:
        zeval.run_ladder, zeval.fit = run_ladder, fit
    return cells, flags, configs, fits


def test_one_result_per_cell_and_regime(ablation):
    cells, flags, *_ = ablation
    results = [r for c in cells for r in c.cells]
    keys = {(r.config_id, r.train_size, r.regime) for r in results}
    expected = len(FAMILIES) * len(DELTAS) * len(PLAN.train_sizes) * 2
    assert len(results) == len(keys) == expected
    assert not [r.failed for r in results if r.failed]
    assert all(r.L == PLAN.test_sizes[0] for r in results if r.regime == "fixed")
    assert set(flags) == {"pool_removal_hurts", "init_removal_hurts",
                          "bn_addition_hurts", "lp_minus_pool_below_chance"}


def test_base_config_reaches_every_cell(ablation):
    configs = ablation[2]
    assert len(configs) == len(FAMILIES) * len(DELTAS)
    shared = [f.name for f in fields(ModelConfig) if f.name not in zeval._CELL_FIELDS]
    for config in configs:
        assert config.text_max_len == 7
        assert all(getattr(config, n) == getattr(BASE, n) for n in shared)


def test_cell_embeds_its_growing_list_once(records, monkeypatch):
    sizes, outcomes = [], []
    embed, fit = zeval._embed, zeval.fit

    def counting_embed(model, data):
        sizes.append(len(data.text_ids))
        return embed(model, data)

    def recording_fit(data, config):
        outcomes.append(fit(data, config))
        return outcomes[-1]

    monkeypatch.setattr(zeval, "_embed", counting_embed)
    monkeypatch.setattr(zeval, "fit", recording_fit)
    results = zeval.run_ladder(records, PLAN, [BASE])
    # one embedding per cell, of its rung's growing list: 6 rows, then 8
    assert sizes == list(PLAN.test_sizes)
    fixed_list = sample_split(records, PLAN).test_subset(PLAN.test_sizes[0])
    for outcome, train_size in zip(outcomes, PLAN.train_sizes):
        direct = zeval.evaluate_pairs(outcome.model, outcome.vocab, outcome.text_vocab,
                                      fixed_list)
        row, = (r for r in results if (r.train_size, r.regime) == (train_size, "fixed"))
        assert row == replace(direct, config_id=BASE.config_id(), train_size=train_size)


def _unshared_rows(records, families, **kwargs):
    """The rows of run_ablations over DELTAS, one run_ladder call per row with
    no state shared between calls."""
    rows = []
    for family in families:
        for delta in DELTAS:
            config = apply_ablation(replace(BASE, family=family), delta)
            rows += zeval.run_ladder(records, PLAN, [config], **kwargs)
    return rows


@pytest.mark.parametrize("kwargs", [{"workers": 2}, {"variant": "cleaned"}],
                         ids=["workers", "cleaned"])
def test_shared_rows_equal_unshared_rows(records, kwargs):
    # lp and gp hold the one pair of rows that share a network
    cells, _ = run_ablations(records, PLAN, families=("lp", "gp"), base_config=BASE,
                             **kwargs)
    rows = [r for c in cells for r in c.cells]
    assert rows and not [r.failed for r in rows if r.failed]
    assert rows == _unshared_rows(records, ("lp", "gp"), **kwargs)


def test_serial_ablation_rows_equal_unshared_rows(records, ablation):
    cells = ablation[0]
    assert [r for c in cells for r in c.cells] == _unshared_rows(records, FAMILIES)


def test_identical_networks_train_once(ablation):
    cells, _, configs, fits = ablation
    ids_by_key = {}
    for config in configs:
        ids_by_key.setdefault(network_key(config), []).append(config.config_id())
    assert sorted(ids for ids in ids_by_key.values() if len(ids) > 1) == [
        ["lp3-Pool", "gp3-Pool"]]
    assert len(fits) == 11 * len(PLAN.train_sizes)
    assert "gp3-Pool" not in fits
    rows = {c.family: c.cells for c in cells if c.delta == "-Pool"}
    assert [replace(r, config_id="lp3-Pool") for r in rows["gp"]] == rows["lp"]
    assert {r.config_id for r in rows["gp"]} == {"gp3-Pool"}


def test_evaluation_embeds_batch_size_rows_at_a_time(records):
    config = replace(BASE, batch_size=4)
    pairs = records[:10]
    data = prepare_pairs(pairs, config)
    model = CLCPModel(config, data.text_vocab.size)
    rows = []
    forward = model.code_encoder.forward

    def recording_forward(x):
        rows.append(x.shape[0])
        return forward(x)

    model.code_encoder.forward = recording_forward
    result = zeval.evaluate_pairs(model, data.vocab, data.text_vocab, pairs)
    assert max(rows) <= 4 and sum(rows) == 10
    assert result.L == 10


def test_empty_held_out_list_is_named(records):
    data = prepare_pairs(records[:4], BASE)
    model = CLCPModel(BASE, data.text_vocab.size)
    with pytest.raises(ValueError, match="held-out pair list is empty"):
        zeval.evaluate_pairs(model, data.vocab, data.text_vocab, [])
    with pytest.raises(ValueError, match="held-out embedding batches are empty"):
        zero_shot_match(np.zeros((0, 8)), np.zeros((0, 8)))


def test_worker_processes_give_the_serial_rows(records):
    configs = [replace(BASE, family="lp"), replace(BASE, family="rn")]
    serial = zeval.run_ladder(records, PLAN, configs)
    assert len(serial) == 2 * len(configs) * len(PLAN.train_sizes)
    assert zeval.run_ladder(records, PLAN, configs, workers=2) == serial


def test_parallel_ablation_opens_one_pool(records, ablation, monkeypatch):
    opened = []

    class CountingPool(zeval.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(zeval, "ProcessPoolExecutor", CountingPool)
    cells, flags = run_ablations(records, PLAN, base_config=BASE, workers=2)
    assert len(opened) == 1
    assert (cells, flags) == ablation[:2]
    # a direct call still opens its own pool
    zeval.run_ladder(records, PLAN, [BASE], workers=2)
    assert len(opened) == 2


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


def test_failed_cell_keeps_seed_and_direction(records):
    too_short = replace(BASE, image_len=8, seed=7)
    results = zeval.run_ladder(records, PLAN, [too_short], direction="text2code")
    assert results and all(r.failed for r in results)
    assert {(r.seed, r.direction) for r in results} == {(7, "text2code")}


def test_directions_match_rows_and_columns():
    # code i is the unit vector e_i, so sim[i, j] = text[j, i]
    sim = np.array([[0.9, 0.8, 0.0],
                    [0.95, 0.1, 0.0],
                    [0.0, 0.0, 1.0]])
    code, text = np.eye(3), sim.T
    code2text = zero_shot_match(code, text, "code2text")
    text2code = zero_shot_match(code, text, "text2code")
    # rows pick texts 0, 0, 2; columns pick codes 1, 0, 2
    assert (code2text.correct, code2text.direction) == (2, "code2text")
    assert (text2code.correct, text2code.direction) == (1, "text2code")
    with pytest.raises(ValueError, match="direction"):
        zero_shot_match(code, text, "both")


def test_cleaned_ladder_labels_every_row(records):
    results = zeval.run_ladder(records, PLAN, [BASE], variant="cleaned")
    assert len(results) == 2 * len(PLAN.train_sizes)
    assert all(r.variant == "cleaned" and not r.failed for r in results)
    with pytest.raises(ValueError, match="variant"):
        zeval.run_ladder(records, PLAN, [BASE], variant="stemmed")


def test_flags_are_none_for_ablations_that_did_not_run(records, ablation):
    _, flags = run_ablations(records, PLAN, families=("lp",), deltas=("none",),
                             base_config=BASE)
    assert flags == dict.fromkeys(ablation[1])
    assert all(isinstance(v, bool) for v in ablation[1].values())
