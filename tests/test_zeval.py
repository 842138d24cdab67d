"""Zero-shot matching and the ablation ladder on a tiny synthetic plan."""
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from clcp import zeval
from clcp.encoders import (CodeEncoder, ModelConfig, TextEncoder, apply_ablation, draw_key,
                           network_key)
from clcp.ingest import SamplePlan, sample_split
from clcp.ndnn import layers
from clcp.synth import generate_family
from clcp.textclean import clean_corpus
from clcp.training import CLCPModel, prepare_pairs
from clcp.zeval import (
    DELTAS,
    FAMILIES,
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

    def counting_fit(data, config, **kwargs):
        fits.append(config.config_id())
        return fit(data, config, **kwargs)

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


def test_run_ladder_is_called_through_the_module_once_per_row(ablation):
    # bench/workloads.py times each row by wrapping zeval.run_ladder
    configs = ablation[2]
    assert [c.config_id() for c in configs] == [
        apply_ablation(replace(BASE, family=family), delta).config_id()
        for family in FAMILIES for delta in DELTAS]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_cell_starts_from_a_fresh_models_bytes(records, monkeypatch, workers):
    cells, init = [], zeval._Cell.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        cells.append(self)

    monkeypatch.setattr(zeval._Cell, "__init__", recording_init)
    run_ablations(records, PLAN, base_config=BASE, workers=workers)
    # gp3-Pool reuses lp3-Pool's rows, so it has no cells of its own
    assert sorted((c.config.config_id(), c.train_size) for c in cells) == sorted(
        (apply_ablation(replace(BASE, family=family), delta).config_id(), size)
        for family in FAMILIES for delta in DELTAS for size in PLAN.train_sizes
        if (family, delta) != ("gp", "-Pool"))
    # serial cells share the arrays; pooled ones draw in their worker
    assert {c.initial is None for c in cells} == {workers > 1}
    for cell in cells:
        vocab_size = cell.train_data.text_vocab.size
        fresh = CLCPModel(cell.config, vocab_size).snapshot()
        given = CLCPModel(cell.config, vocab_size, cell.initial).snapshot()
        assert list(given) == list(fresh)
        assert all(given[name].tobytes() == fresh[name].tobytes() for name in fresh)


def test_each_call_draws_each_distinct_encoder_once(records, monkeypatch):
    shapes, he_init = [], layers.he_init

    def recording_he_init(shape, *args, **kwargs):
        shapes.append(shape)
        return he_init(shape, *args, **kwargs)

    monkeypatch.setattr(layers, "he_init", recording_he_init)
    draws = []
    for _ in range(2):
        shapes.clear()
        run_ablations(records, PLAN, base_config=BASE)
        draws.append(list(shapes))
    # He init draws each conv and projection of one code encoder per (family,
    # delta) but +BN (none's draws) and -Init (no He init), and gp3-Pool
    # (lp3-Pool's rows): lp3, lp3-Pool and gp3 draw 4, rn3 and rn3-Pool 11;
    # and one text projection per vocabulary size, which differs per train size
    assert len(draws[0]) == 3 * 4 + 2 * 11 + len(PLAN.train_sizes)
    assert draws[1] == draws[0]


def test_draw_key_classes_across_the_ladder():
    # no draw: +BN draws what none does, and lpN-Pool what gpN-Pool does
    ids_by_key = {}
    for family in FAMILIES:
        for delta in DELTAS:
            for blocks in (3, 5):
                config = apply_ablation(ModelConfig(family=family, blocks=blocks), delta)
                key = draw_key(CodeEncoder(config, draw=False))
                ids_by_key.setdefault(key, []).append(config.config_id())
    assert sorted(ids for ids in ids_by_key.values() if len(ids) > 1) == sorted(
        [[f"{family}{blocks}", f"{family}{blocks}+BN"]
         for family in FAMILIES for blocks in (3, 5)]
        + [[f"lp{blocks}-Pool", f"gp{blocks}-Pool"] for blocks in (3, 5)])
    text_keys = {draw_key(TextEncoder(replace(BASE, **change), size, draw=False))
                 for change in ({}, {"use_bn": True}, {"use_pooling": False},
                                {"family": "rn"}, {"use_he_init": False})
                 for size in (37, 52)}
    assert len(text_keys) == 4


def test_cell_embeds_its_growing_list_once(records, monkeypatch):
    sizes, outcomes = [], []
    embed, fit = zeval._embed, zeval.fit

    def counting_embed(model, data):
        sizes.append(len(data.text_ids))
        return embed(model, data)

    def recording_fit(data, config, **kwargs):
        outcomes.append(fit(data, config, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(zeval, "_embed", counting_embed)
    monkeypatch.setattr(zeval, "fit", recording_fit)
    results = zeval.run_ladder(records, PLAN, [BASE])
    # one embedding per cell, of its rung's growing list: 6 rows, then 8
    assert sizes == list(PLAN.test_sizes)
    fixed_list = sample_split(records, PLAN)[1][:PLAN.test_sizes[0]]
    for outcome, train_size in zip(outcomes, PLAN.train_sizes):
        direct = zeval.evaluate_pairs(outcome.model, outcome.vocab, outcome.text_vocab,
                                      fixed_list)
        row, = (r for r in results if (r.train_size, r.regime) == (train_size, "fixed"))
        assert row == replace(direct, config_id=BASE.config_id(), train_size=train_size)


def _unshared_rows(records, families):
    """The rows of run_ablations over DELTAS, one run_ladder call per row with
    no state shared between calls."""
    rows = []
    for family in families:
        for delta in DELTAS:
            config = apply_ablation(replace(BASE, family=family), delta)
            rows += zeval.run_ladder(records, PLAN, [config])
    return rows


@pytest.mark.parametrize("case", ["workers", "cleaned"])
def test_shared_rows_equal_unshared_rows(records, case):
    # lp and gp hold the one pair of rows that share a network
    workers = 2 if case == "workers" else 1
    if case == "cleaned":
        records = clean_corpus(records)[0]
    cells, _ = run_ablations(records, PLAN, families=("lp", "gp"), base_config=BASE,
                             workers=workers)
    rows = [r for c in cells for r in c.cells]
    assert rows and not [r.failed for r in rows if r.failed]
    assert rows == _unshared_rows(records, ("lp", "gp"))


def test_cells_take_blocks_from_the_base_config(records):
    # four pooled blocks need a longer image than BASE's
    base = replace(BASE, blocks=4, channels=(4, 4, 4, 4), image_len=128)
    cells, _ = run_ablations(records, PLAN, families=("lp",), deltas=("none", "+BN"),
                             base_config=base)
    assert [c.blocks for c in cells] == [4, 4]
    rows = [r for c in cells for r in c.cells]
    assert [r.config_id for r in rows] == ["lp4"] * 4 + ["lp4+BN"] * 4
    assert not [r.failed for r in rows if r.failed]


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


def test_network_key_classes_across_the_ladder():
    # no model is built: at every size only lpN-Pool and gpN-Pool share a network
    ids_by_key = {}
    for family in FAMILIES:
        for delta in DELTAS:
            for blocks in range(3, 8):
                config = apply_ablation(ModelConfig(family=family, blocks=blocks), delta)
                ids_by_key.setdefault(network_key(config), []).append(config.config_id())
    assert sorted(ids for ids in ids_by_key.values() if len(ids) > 1) == [
        [f"lp{blocks}-Pool", f"gp{blocks}-Pool"] for blocks in range(3, 8)]


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


@pytest.mark.parametrize("code_shape,text_shape", [((3, 8), (4, 8)), ((3, 8), (3, 4))])
def test_embedding_batches_of_different_shapes_are_named(code_shape, text_shape):
    message = f"embedding batches differ: {code_shape} vs {text_shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        zero_shot_match(np.zeros(code_shape), np.zeros(text_shape))


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


def test_geometry_that_cannot_fit_marks_cells_failed(records):
    too_short = ModelConfig(image_len=8, channels=(4, 4, 4), max_epochs=1, patience=1)
    cells, _ = run_ablations(records, PLAN, families=("lp", "rn"), deltas=("none",),
                             base_config=too_short)
    results = [r for c in cells for r in c.cells]
    assert len(results) == 2 * len(PLAN.train_sizes)   # one failed row per cell
    assert all("block" in r.failed for r in results)


def test_failed_cell_keeps_seed(records):
    too_short = replace(BASE, image_len=8, seed=7)
    results = zeval.run_ladder(records, PLAN, [too_short])
    assert results and all(r.failed for r in results)
    assert {r.seed for r in results} == {7}


def test_failed_train_data_fails_every_cell_it_feeds(records, monkeypatch):
    # each rung's first call prepares its train data; when that fails, no cell
    # of the rung trains and its test list is never prepared
    calls = []

    def failing_call(*args, **kwargs):
        calls.append(args)
        raise ValueError("image_len too short for any snippet")

    monkeypatch.setattr(zeval, "prepare_pairs", failing_call)
    configs = [BASE, replace(BASE, family="rn")]
    results = zeval.run_ladder(records, PLAN, configs)
    assert len(calls) == len(PLAN.train_sizes)
    assert len(results) == len(configs) * len(PLAN.train_sizes)
    message, = {r.failed for r in results}
    assert "image_len" in message
    assert {(r.config_id, r.train_size) for r in results} == {
        (c.config_id(), n) for c in configs for n in PLAN.train_sizes}


def test_failed_test_data_fails_only_the_cells_it_feeds(records, monkeypatch):
    # the second call prepares the first rung's test list
    calls, prepare = [], zeval.prepare_pairs

    def failing_second_call(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("test list unreadable")
        return prepare(*args, **kwargs)

    monkeypatch.setattr(zeval, "prepare_pairs", failing_second_call)
    configs = [BASE, replace(BASE, family="rn")]
    results = zeval.run_ladder(records, PLAN, configs)
    assert len(calls) == 2 * len(PLAN.train_sizes)
    first, second = ([r.failed for r in results if r.train_size == n] for n in PLAN.train_sizes)
    # a failed cell has one row, a scored cell one per regime
    assert first == ["test list unreadable"] * len(configs)
    assert second == [""] * 2 * len(configs)


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


def test_flags_are_none_for_ablations_that_did_not_run(records, ablation):
    _, flags = run_ablations(records, PLAN, families=("lp",), deltas=("none",),
                             base_config=BASE)
    assert flags == dict.fromkeys(ablation[1])
    assert all(isinstance(v, bool) for v in ablation[1].values())


@pytest.mark.parametrize("field,value", [("plan", replace(PLAN, seed=9))])
def test_shared_state_must_match_the_call(records, field, value):
    shared = zeval.LadderState(records, **{"plan": PLAN, field: value})
    with pytest.raises(ValueError, match=f"^{field}: the shared state has "):
        zeval.run_ladder(records, PLAN, [BASE], shared=shared)
    assert not shared.rows
