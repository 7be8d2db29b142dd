"""Training-loop tests: hand-checked SGD steps, aggregation rules, determinism."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from byzweight import engine
from byzweight.engine import (
    AllMassTrimmed,
    Behavior,
    ClientSpec,
    EmptyClientData,
    METRICS_CSV_HEADER,
    RoundMetrics,
    TrainConfig,
    TrimmedMean,
    WeightSumZero,
    WeightedMean,
    WeightedMedian,
    aggregate,
    aggregate_trimmed_mean,
    aggregate_weighted_mean,
    aggregate_weighted_median,
    client_update,
    metrics_to_csv,
    round_plan,
    run_training,
    select_clients,
    stream,
    streams,
)
from byzweight.tasks import (
    Dataset,
    OneHiddenMLP,
    SoftmaxRegression,
    generate_blobs,
    split_by_sizes,
)
from byzweight.weights import Ignore, Passthrough, Truncate, TruncationQuery, preprocess
from oracles import client_by_client_update, stable_trimmed_mean, stable_weighted_median


@dataclass(frozen=True)
class ScalarQuadratic:
    """Toy model: loss(w; z) = 0.5 (w - z)^2, one parameter, feature is z."""

    classes: int = 2

    @property
    def param_count(self) -> int:
        return 1

    def init_params(self, rng=None):
        return np.zeros(1)

    def loss(self, w, batch, dropout_rng=None):
        return float(0.5 * ((w[0] - batch.features[:, 0]) ** 2).mean())

    def gradient(self, w, batch, dropout_rng=None):
        # stacked: w (m, 1) and features (m, L, 1) give one gradient per row
        return (w[:, :1] - batch.features[:, :, 0]).mean(axis=1, keepdims=True)

    def predict(self, w, features):
        return np.zeros(len(features), dtype=np.int64)


def scalar_data(*zs):
    return Dataset(np.array(zs, dtype=float)[:, None], np.zeros(len(zs), dtype=np.int64))


def round_update(model, w, clients, rows, cfg, round_index, chosen=None):
    """client_update of the chosen clients (all by default) over one pool of
    every client's rows, as run_training makes it."""
    pool, offset, count = engine._row_pool(rows)
    at = list(range(len(clients)) if chosen is None else chosen)
    updates = np.full((len(at), len(w)), np.nan)  # client_update fills every entry
    ids = np.array([clients[i].id for i in at], dtype=np.int64)
    plan = round_plan(ids, offset[at], count[at], cfg, round_index)
    return client_update(model, w, plan, pool, updates)


def train_one(model, w, client, cfg, round_index, effective_size=None):
    """client_update for a round in which only this client trains."""
    size = len(client.data) if effective_size is None else effective_size
    rows = engine._training_rows(model, client, cfg, size)
    return round_update(model, w, [client], [rows], cfg, round_index)[0]


def toy_config(**kw):
    base = dict(
        rounds=1,
        eta=0.1,
        epochs=1,
        batch_size=1,
        preprocess=Passthrough(),
        aggregator=WeightedMean(),
        master_seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------------------- client update


def test_single_gradient_step_by_hand():
    client = ClientSpec(0, scalar_data(1.0), 1)
    w = train_one(ScalarQuadratic(), np.zeros(1), client, toy_config(), 1)
    assert w[0] == pytest.approx(0.1, abs=1e-15)


def test_two_epochs_by_hand():
    client = ClientSpec(0, scalar_data(1.0), 1)
    w = train_one(ScalarQuadratic(), np.zeros(1), client, toy_config(epochs=2), 1)
    assert w[0] == pytest.approx(0.19, abs=1e-15)


def test_no_movement_at_shard_optimum():
    data = scalar_data(1.0, 3.0, 8.0)
    client = ClientSpec(0, data, 3)
    opt = np.array([4.0])
    cfg = toy_config(epochs=3, batch_size=3)
    w = train_one(ScalarQuadratic(), opt, client, cfg, 1)
    assert abs(w[0] - 4.0) <= 1e-12


def test_partial_batch_scales_by_its_size():
    # replay the same shuffle stream and apply the update rule by hand
    data = scalar_data(1.0, 3.0, 8.0)
    client = ClientSpec(4, data, 3)
    cfg = toy_config(eta=0.05, batch_size=2)
    got = train_one(ScalarQuadratic(), np.zeros(1), client, cfg, 7)
    zs = data.features[:, 0]
    order = stream(cfg.master_seed, 3, 7, 4).permutation(3)
    w = 0.0
    for start in (0, 2):
        chunk = order[start : start + 2]
        grad = (w - zs[chunk]).mean()
        w -= cfg.eta * (len(chunk) / 2) * grad
    assert got[0] == pytest.approx(w, abs=1e-15)


def test_fractional_batch_size_resolves_per_client():
    # f=1.0 means one full batch regardless of shard size
    data = scalar_data(1.0, 3.0, 8.0, 2.0)
    client = ClientSpec(0, data, 4)
    frac = train_one(ScalarQuadratic(), np.zeros(1), client, toy_config(batch_size=1.0), 1)
    whole = train_one(ScalarQuadratic(), np.zeros(1), client, toy_config(batch_size=4), 1)
    assert frac[0] == whole[0]
    # a single-sample shard gets batch 1, so the step keeps full magnitude
    one = ClientSpec(0, scalar_data(1.0), 1)
    w = train_one(ScalarQuadratic(), np.zeros(1), one, toy_config(batch_size=0.25), 1)
    assert w[0] == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize(
    "model, drops",
    [
        (SoftmaxRegression(dim=4, classes=3), False),
        (OneHiddenMLP(dim=4, hidden=5, classes=3, dropout_rate=0.0), False),
        (OneHiddenMLP(dim=4, hidden=5, classes=3, dropout_rate=0.3), True),
    ],
    ids=["softmax", "mlp_no_dropout", "mlp_dropout"],
)
def test_streams_built_only_where_drawn(monkeypatch, model, drops):
    # one-row shards draw no shuffle; only a model that drops units gets a
    # dropout stream, and then exactly one per (round, client)
    built = []

    def spy(*keys):
        built.append(keys)
        return stream(*keys)

    def batch_spy(*parts):
        # each key the batch seeds, as the tuple stream would be keyed on
        cols = np.broadcast_arrays(*map(np.atleast_1d, parts))
        built.extend(tuple(int(x) for x in key) for key in zip(*cols))
        return streams(*parts)

    monkeypatch.setattr(engine, "stream", spy)
    monkeypatch.setattr(engine, "streams", batch_spy)
    sizes = (1, 4, 1, 7, 2, 1)
    shards = split_by_sizes(generate_blobs(sum(sizes), dim=4, classes=3, seed=5), sizes, seed=6)
    clients = [ClientSpec(cid, shard, len(shard)) for cid, shard in enumerate(shards)]
    clients[4] = ClientSpec(4, shards[4], 50, Behavior.LABEL_SHIFT)
    cfg = toy_config(rounds=2, epochs=2, batch_size=2, master_seed=9)
    run_training(model, clients, shards[0], [cfg])

    def keys_of(tag):
        return sorted(k[2:] for k in built if k[:2] == (9, tag))

    rounds = (1, 2)
    assert keys_of(engine._TAG_SHUFFLE) == [
        (t, cid) for t in rounds for cid, n in enumerate(sizes) if n > 1
    ]
    expected = [(t, cid) for t in rounds for cid in range(len(sizes))] if drops else []
    assert keys_of(engine._TAG_DROPOUT) == expected


@pytest.mark.parametrize(
    "model",
    [
        SoftmaxRegression(dim=5, classes=3),
        OneHiddenMLP(dim=5, hidden=7, classes=3, dropout_rate=0.0),
        OneHiddenMLP(dim=5, hidden=7, classes=3, dropout_rate=0.2),
    ],
    ids=["softmax", "mlp_no_dropout", "mlp_dropout"],
)
def test_lockstep_matches_each_client_alone(model):
    # a round of many clients gives every client the bits it gets when it
    # is the only one training, i.e. when every gradient call is a stack of
    # one, and the bits of a plain client-by-client loop over default_rng
    # streams; in full rounds and in rounds of sampled clients
    rng = np.random.default_rng(21)
    behaviors = ["honest", "honest", "label_shift", "model_negation"]
    for trial in range(8):
        sizes = [int(x) for x in rng.choice([1, 1, 1, 2, 3, 4, 7, 12], size=14)]
        data = generate_blobs(sum(sizes), dim=5, classes=3, seed=trial)
        shards = split_by_sizes(data, sizes, seed=trial + 50)
        clients = []
        for cid, shard in enumerate(shards):
            # every round holds label-shift and negation lanes
            behavior = Behavior(behaviors[cid % 4] if cid < 4 else rng.choice(behaviors))
            declared = len(shard) if behavior is Behavior.HONEST else 40
            clients.append(ClientSpec(cid, shard, declared, behavior))
        cfg = toy_config(
            eta=0.3,
            epochs=2,
            batch_size=[3, 1, 5, 0.5, 0.3, 1.0, 2, 0.75][trial],
            honest_use_all_samples=bool(trial % 2),
            master_seed=trial,
        )
        rows = [engine._training_rows(model, c, cfg, int(rng.integers(1, 10))) for c in clients]
        w = model.init_params(np.random.default_rng(trial)) + 0.1
        for per_round in (None, 5, 0.5):
            chosen = select_clients(4, len(clients), per_round, trial)
            picked = [clients[cid] for cid in chosen]
            picked_rows = [rows[cid] for cid in chosen]
            together = round_update(model, w, clients, rows, cfg, 4, chosen)
            assert together.shape == (len(chosen), model.param_count)
            reference = client_by_client_update(model, w, picked, picked_rows, cfg, 4)
            assert together.tobytes() == reference.tobytes()
            for i, (client, r) in enumerate(zip(picked, picked_rows)):
                alone = round_update(model, w, [client], [r], cfg, 4)
                assert np.array_equal(together[i], alone[0])
                if client.behavior is Behavior.MODEL_NEGATION:
                    assert np.array_equal(together[i], -w)


def test_sampled_rounds_gather_each_client_from_the_pool(monkeypatch):
    # run_training pools every client's rows once; a round of sampled clients,
    # not a prefix of the ids, trains each on its own rows of the pool (label
    # shift and fixed subsets applied) with the bytes of a client-by-client loop
    model = SoftmaxRegression(dim=5, classes=3)
    rng = np.random.default_rng(31)
    sizes = [int(x) for x in rng.choice([1, 2, 3, 5, 8, 13], size=16)]
    shards = split_by_sizes(generate_blobs(sum(sizes), dim=5, classes=3, seed=4), sizes, seed=5)
    odd = {2: Behavior.LABEL_SHIFT, 9: Behavior.LABEL_SHIFT, 5: Behavior.MODEL_NEGATION}
    clients = [ClientSpec(cid, shard, 100 if cid in odd else len(shard), odd.get(cid, Behavior.HONEST))
               for cid, shard in enumerate(shards)]
    cfg = toy_config(rounds=6, eta=0.3, epochs=2, batch_size=2, clients_per_round=7,
                     preprocess=Truncate(TruncationQuery("1/4", "1/3")),  # cap 3
                     honest_use_all_samples=False, master_seed=12)
    seen, update = [], engine.client_update

    def spy(model, w, plan, *rest):
        seen.append((w.copy(), plan.ids.tolist(), update(model, w, plan, *rest).copy()))
        return seen[-1][2]

    monkeypatch.setattr(engine, "client_update", spy)
    run_training(model, clients, shards[0], [cfg])
    weight = preprocess([c.declared_size for c in clients], cfg.preprocess)
    rows = [engine._training_rows(model, c, cfg, weight[c.id]) for c in clients]
    assert any(0 < len(r) < len(c.data) for r, c in zip(rows, clients))  # subsets in use
    assert len(seen) == 6 and all(ids != list(range(7)) for _, ids, _ in seen)
    assert {2, 5, 9} <= {cid for _, ids, _ in seen for cid in ids}
    for t, (w, ids, got) in enumerate(seen, 1):
        want = client_by_client_update(model, w, [clients[i] for i in ids], [rows[i] for i in ids], cfg, t)
        assert got.tobytes() == want.tobytes()


SEED_PARTS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3)


def test_streams_match_default_rng():
    # batch seeding reproduces np.random.default_rng(key) exactly; a numpy
    # release that seeds differently fails here first
    mixed = np.array(SEED_PARTS, dtype=object)  # keys of 1, 2 and 3 words in one batch
    batches = [(a, b) for a in SEED_PARTS for b in SEED_PARTS]
    batches += [(a, mixed) for a in SEED_PARTS] + [(mixed, a) for a in SEED_PARTS]
    batches += [(a, 3, b, mixed) for a in SEED_PARTS for b in SEED_PARTS]
    batches += [(a, mixed, 3, b) for a in SEED_PARTS for b in SEED_PARTS]
    batches += [(9, 3, 4, np.arange(20)), (9, np.array([0, 2**32 - 1, 2**32, 2**64 - 1], np.uint64))]
    for parts in batches:
        keys = list(zip(*np.broadcast_arrays(*map(np.atleast_1d, parts))))
        got = streams(*parts)
        for key in keys:
            want = np.random.default_rng(tuple(int(k) for k in key))
            rng = next(got)
            assert rng.bit_generator.state == want.bit_generator.state, key
            assert np.array_equal(rng.permutation(10), want.permutation(10)), key
            assert np.array_equal(rng.choice(1000, size=5), want.choice(1000, size=5)), key
        assert next(got, None) is None
    for parts in [(3, -1), (-1, 3, 4, 5), (3, np.array([1, -2]))]:
        with pytest.raises(ValueError):
            next(streams(*parts))


def test_equal_length_batches_share_one_gradient_call(monkeypatch):
    # one step of lengths 3, 1, 3, 1, 3: two stacked calls, not five
    calls = []
    model = SoftmaxRegression(dim=4, classes=3)
    gradient = model.gradient

    def spy(w, batch, rngs=None):
        calls.append(batch.features.shape[:2])
        return gradient(w, batch, rngs)

    monkeypatch.setattr(SoftmaxRegression, "gradient", lambda self, *a: spy(*a))
    sizes = (3, 1, 3, 1, 3)
    shards = split_by_sizes(generate_blobs(sum(sizes), dim=4, classes=3, seed=5), sizes, seed=6)
    clients = [ClientSpec(cid, shard, len(shard)) for cid, shard in enumerate(shards)]
    round_update(model, np.zeros(model.param_count), clients, shards, toy_config(batch_size=3), 1)
    assert sorted(calls) == [(2, 1), (3, 3)]


def test_fixed_subset_built_once_per_run(monkeypatch):
    built = []

    def spy(*keys):
        built.append(keys)
        return stream(*keys)

    monkeypatch.setattr(engine, "stream", spy)
    sizes = (1, 4, 1, 7, 2)
    shards = split_by_sizes(generate_blobs(sum(sizes), dim=4, classes=3, seed=5), sizes, seed=6)
    clients = [ClientSpec(cid, shard, len(shard)) for cid, shard in enumerate(shards)]
    cfg = toy_config(rounds=3, preprocess=Ignore(), honest_use_all_samples=False, master_seed=9)
    run_training(SoftmaxRegression(dim=4, classes=3), clients, shards[0], [cfg])
    subsets = sorted(k[2:] for k in built if k[:2] == (9, engine._TAG_SUBSET))
    assert subsets == [(cid,) for cid, n in enumerate(sizes) if n > 1]


def test_label_shift_trains_on_flipped_labels():
    ds = generate_blobs(40, dim=6, classes=5, seed=3)
    flipped = Dataset(ds.features, 4 - ds.labels)
    model = SoftmaxRegression(dim=6, classes=5)
    w0 = np.zeros(model.param_count)
    cfg = toy_config(eta=0.2, epochs=2, batch_size=8)
    shifty = ClientSpec(2, ds, 40, Behavior.LABEL_SHIFT)
    honest = ClientSpec(2, flipped, 40)
    a = train_one(model, w0, shifty, cfg, 5)
    b = train_one(model, w0, honest, cfg, 5)
    assert np.array_equal(a, b)


def test_fixed_subset_mode_uses_fewer_samples():
    data = scalar_data(*range(1, 11))
    client = ClientSpec(1, data, 10)
    cfg = toy_config(eta=0.5, epochs=1, batch_size=10, honest_use_all_samples=False)
    full = train_one(ScalarQuadratic(), np.zeros(1), client, cfg, 1, effective_size=10)
    few = train_one(ScalarQuadratic(), np.zeros(1), client, cfg, 1, effective_size=3)
    again = train_one(ScalarQuadratic(), np.zeros(1), client, cfg, 1, effective_size=3)
    assert full[0] == pytest.approx(0.5 * np.mean(range(1, 11)))
    assert few[0] != full[0]
    assert few[0] == again[0]
    # all-samples mode ignores the effective size entirely
    cfg_all = toy_config(eta=0.5, epochs=1, batch_size=10)
    assert train_one(ScalarQuadratic(), np.zeros(1), client, cfg_all, 1, effective_size=3)[
        0
    ] == pytest.approx(full[0])


def test_honest_client_cannot_lie():
    with pytest.raises(ValueError):
        ClientSpec(0, scalar_data(1.0, 2.0), 5)
    ClientSpec(0, scalar_data(1.0, 2.0), 5, Behavior.MODEL_NEGATION)


def test_client_needs_samples_and_a_positive_declared_size():
    with pytest.raises(EmptyClientData, match="^client 3 holds no samples$"):
        ClientSpec(3, scalar_data(), 1, Behavior.MODEL_NEGATION)
    with pytest.raises(ValueError, match="^declared_size must be a positive integer$"):
        ClientSpec(0, scalar_data(1.0), 0, Behavior.MODEL_NEGATION)


# --------------------------------------------------------------- aggregators


def test_weighted_mean_hand_example():
    got = aggregate_weighted_mean([np.array([2.0]), np.array([4.0])], [1, 3])
    assert got == pytest.approx([3.5])
    single = aggregate_weighted_mean([np.array([7.0, 1.0])], [5])
    assert np.array_equal(single, [7.0, 1.0])
    with pytest.raises(WeightSumZero):
        aggregate_weighted_mean([np.array([1.0]), np.array([2.0])], [0, 0])


def test_weighted_median_hand_example():
    got = aggregate_weighted_median([np.array([0.0]), np.array([10.0])], [1, 3])
    assert got == pytest.approx([10.0])
    odd = aggregate_weighted_median(
        [np.array([5.0]), np.array([1.0]), np.array([9.0])], [1, 1, 1]
    )
    assert odd == pytest.approx([5.0])
    single = aggregate_weighted_median([np.array([3.0, -2.0])], [2])
    assert np.array_equal(single, [3.0, -2.0])


def test_trimmed_mean_hand_example():
    vals = [np.array([0.0]), np.array([5.0]), np.array([100.0])]
    got = aggregate_trimmed_mean(vals, [1, 1, 1], 1 / 3)
    assert got == pytest.approx([5.0])
    wt = [1.0, 2.0, 0.5]
    assert aggregate_trimmed_mean(vals, wt, 0.0) == pytest.approx(
        aggregate_weighted_mean(vals, wt)
    )
    with pytest.raises(AllMassTrimmed):
        aggregate_trimmed_mean(vals, [1, 1, 1], 0.5)


def test_trimmed_mean_ignores_light_extreme_client():
    # the outlier's whole weight sits inside the trimmed tail
    base = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    results = []
    for extreme in (50.0, 1e6, 1e12):
        got = aggregate_trimmed_mean(base + [np.array([extreme])], [3, 3, 3, 1], 0.2)
        results.append(got[0])
    assert results[0] == results[1] == results[2]


def classic_trimmed_mean(values: np.ndarray, k: int) -> np.ndarray:
    ranked = np.sort(values, axis=0)
    return ranked[k : len(values) - k].mean(axis=0)


def classic_lower_median(values: np.ndarray) -> np.ndarray:
    ranked = np.sort(values, axis=0)
    return ranked[(len(values) - 1) // 2]


def test_uniform_weights_reduce_to_classic_estimators():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(1, 4))
        vals = rng.standard_normal((n, p)) * 10
        updates = list(vals)
        ones = [1.0] * n
        med = aggregate_weighted_median(updates, ones)
        assert np.allclose(med, classic_lower_median(vals), atol=1e-12)
        k = int(rng.integers(0, (n - 1) // 2 + 1))
        trimmed = aggregate_trimmed_mean(updates, ones, k / n)
        assert np.allclose(trimmed, classic_trimmed_mean(vals, k), atol=1e-12)
        mean = aggregate_weighted_mean(updates, ones)
        assert np.allclose(mean, vals.mean(axis=0), atol=1e-12)


def test_median_breakdown_stays_in_untouched_span():
    rng = np.random.default_rng(78)
    for _ in range(40):
        n = int(rng.integers(3, 10))
        p = int(rng.integers(1, 3))
        vals = rng.standard_normal((n, p))
        weights = rng.uniform(0.1, 5.0, size=n)
        total = weights.sum()
        # pick a victim subset holding strictly less than half the mass
        order = rng.permutation(n)
        victims, mass = [], 0.0
        for i in order:
            if mass + weights[i] < total / 2:
                victims.append(i)
                mass += weights[i]
        if not victims:
            continue
        corrupted = vals.copy()
        corrupted[victims] = rng.choice([-1e12, 1e12], size=(len(victims), p))
        got = aggregate_weighted_median(list(corrupted), list(weights))
        untouched = np.delete(vals, victims, axis=0)
        assert np.all(got >= untouched.min(axis=0) - 1e-12)
        assert np.all(got <= untouched.max(axis=0) + 1e-12)


def test_aggregate_dispatch():
    ups = [np.array([2.0]), np.array([4.0])]
    assert aggregate(WeightedMean(), ups, [1, 3]) == pytest.approx([3.5])
    assert aggregate(WeightedMedian(), ups, [1, 3]) == pytest.approx([4.0])
    assert aggregate(TrimmedMean(0.0), ups, [1, 3]) == pytest.approx([3.5])
    with pytest.raises(ValueError):
        TrimmedMean(0.5)
    unequal = "^need equally many updates and weights, at least one$"
    for kind in (WeightedMean(), WeightedMedian(), TrimmedMean(0.0)):
        with pytest.raises(ValueError, match=unequal):
            aggregate(kind, ups, [1, 3, 1])
    with pytest.raises(TypeError, match="^unknown aggregator <object object at "):
        aggregate(object(), ups, [1, 3])


def tied_updates(k: int, p: int, seed: int):
    """A (k, p) update matrix and weights holding every kind of tie the
    aggregators must break in client order."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((k, p))
    u[rng.random(k) < 0.1] = -rng.standard_normal(p)  # identical attacker rows
    small = rng.random((k, p)) < 0.2
    u[small] = rng.integers(-2, 3, small.sum())  # ties among honest values, 0.0 among them
    special = rng.random((k, p)) < 0.1
    u[special] = rng.choice([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], special.sum())
    weights = rng.integers(0, 4, k) if seed % 2 else rng.random(k) * (rng.random(k) > 0.3)
    weights[rng.integers(k)] = 1  # zero weights, but a positive total
    return u, weights


def assert_matches_stable_sort(u, weights):
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf under the trimmed mean
        want = stable_weighted_median(u, weights)
        assert aggregate_weighted_median(u, weights).tobytes() == want.tobytes()
        for beta in (0.0, 0.1, 0.3, 0.49):
            want = stable_trimmed_mean(u, weights, beta)
            assert aggregate_trimmed_mean(u, weights, beta).tobytes() == want.tobytes()


def near_equal_updates(k: int, p: int, seed: int):
    """(k, p) updates whose distinct values differ only in their lowest bits,
    1 + i eps for i below about 2k, of either sign, so that many share all
    but the client id's bits of the rank key; ±0.0, ±NaN and ±inf mixed in."""
    rng = np.random.default_rng(seed)
    u = 1.0 + rng.integers(0, 2 * k + 2, (k, p)) * np.finfo(float).eps
    u[rng.random((k, p)) < 0.3] *= -1
    special = rng.random((k, p)) < 0.1
    u[special] = rng.choice([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], special.sum())
    weights = rng.integers(0, 4, k) if seed % 2 else rng.random(k)
    weights[rng.integers(k)] = 1
    return u, weights


# K = 1, and K at 2^b and 2^b +- 1, where the rank key's bit width changes
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257])
def test_robust_aggregators_match_stable_sort_bytes(k):
    for seed in range(6):
        assert_matches_stable_sort(*tied_updates(k, 7, seed))
        # -0.0 and 0.0 tie, and NaNs tie, in whole columns
        signed = np.random.default_rng(seed).choice([0.0, -0.0, np.nan], (k, 3))
        assert_matches_stable_sort(signed, np.arange(1, k + 1) % 3)
        assert_matches_stable_sort(*near_equal_updates(k, 7, seed))


# K = 2 000 puts 16 columns in a block, K = 2^15 + 3 one
@pytest.mark.parametrize("k, p", [(2000, 40), (2**15 + 3, 3)])
def test_robust_aggregators_match_stable_sort_bytes_on_near_equal_values(k, p):
    for seed in range(2):
        assert_matches_stable_sort(*near_equal_updates(k, p, seed))


@pytest.mark.parametrize("k, p", [(2000, 210), (100, 2014)])
def test_robust_aggregators_match_stable_sort_bytes_at_workload_shape(k, p):
    rng = np.random.default_rng(k)
    clean = rng.standard_normal((k, p))
    attacked = clean.copy()
    attacked[: k // 10] = -rng.standard_normal(p)  # one negated model, sent by a tenth
    for u in (clean, attacked, tied_updates(k, p, 1)[0]):
        assert_matches_stable_sort(u, rng.integers(0, 10, k))


# K = 2^15 + 3 puts one column in a block
@pytest.mark.parametrize("k, p", [(1, 3), (9, 7), (300, 20), (2000, 40), (2**15 + 3, 2)])
def test_aggregators_give_a_stack_of_weight_rows_the_bytes_of_each_row(k, p):
    # a (C, K) stack shares each block's ranking; every output row has the
    # bytes of a call with that weight row alone, and so of a stable sort
    rows = [tied_updates(k, p, seed) for seed in range(4)] + [near_equal_updates(k, p, 5)]
    stack = [w for _, w in rows]
    for u, _ in rows:
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf under the trimmed mean
            for beta in (0.0, 0.1, 0.3):
                got = aggregate_trimmed_mean(u, stack, beta)
                assert got.shape == (len(stack), p)
                for row, w in zip(got, stack):
                    assert row.tobytes() == stable_trimmed_mean(u, w, beta).tobytes()
            got = aggregate_weighted_median(u, stack)
            for row, w in zip(got, stack):
                assert row.tobytes() == stable_weighted_median(u, w).tobytes()
            got = aggregate_weighted_mean(u, [w.tolist() for w in stack])
            for row, w in zip(got, stack):
                assert row.tobytes() == aggregate_weighted_mean(u, w).tobytes()
    u, w = rows[0]
    for kind in (WeightedMean(), WeightedMedian(), TrimmedMean(0.1)):
        with pytest.raises(WeightSumZero):  # each row is checked alone
            aggregate(kind, u, [w, np.zeros(k)])
        with pytest.raises(ValueError, match="^weights must be finite and non-negative$"):
            aggregate(kind, u, [w, np.full(k, np.inf)])
        for bad in ([w[1:], w[1:]], [[w]]):  # a row of K - 1 weights, and a (1, 1, K) array
            with pytest.raises(ValueError, match="^need equally many updates and weights"):
                aggregate(kind, u, bad)


def zero_and_nan_runs(k: int, p: int, seed: int, fill: float):
    """(k, p) updates whose lower median falls in a run of fill (0.0 or NaN)
    holding both signs, and integer weights with zeros inside the run."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((k, p))
    if np.isnan(fill):
        u = np.abs(u)  # NaN ranks last: keep most mass in the NaN run
    run = rng.random((k, p)) < 0.6
    u[run] = rng.choice([fill, -fill], run.sum())
    return u, rng.integers(0, 3, k)


@pytest.mark.parametrize("k", [7, 100, 2000])
@pytest.mark.parametrize("fill", [0.0, np.nan], ids=["signed_zero", "nan"])
def test_median_on_zero_and_nan_runs_matches_stable_sort(k, fill):
    # whole-number weights, and a lower median in a run of 0.0 and -0.0, or of NaNs of both signs
    for seed in range(4):
        u, weights = zero_and_nan_runs(k, 40, seed, fill)
        clean = np.random.default_rng(seed).standard_normal((k, 40))
        for w in (weights, weights * 3.0):  # int64, and whole-number floats
            assert aggregate_weighted_median(u, w).tobytes() == stable_weighted_median(u, w).tobytes()
            assert aggregate_weighted_median(clean, w).tobytes() == stable_weighted_median(clean, w).tobytes()


def test_median_above_2_53_matches_stable_sort():
    # partial sums past 2^53 round, so the order within a run can move the crossing
    rng = np.random.default_rng(5)
    u = rng.integers(-2, 3, (300, 20)) + 0.5  # long runs of equal values, no zeros
    for weights in ([2**53] + [1, 2] * 149 + [3], [2**52] * 2 + [1, 3] * 149):
        assert sum(weights) > 2**53
        got = aggregate_weighted_median(u, weights)
        assert got.tobytes() == stable_weighted_median(u, weights).tobytes()


def test_rank_resorts_exactly_the_rows_out_of_order(monkeypatch):
    # one block; the columns of u are the rows _rank sees
    k, eps = 300, np.finfo(float).eps
    rng = np.random.default_rng(4)
    ids = np.arange(k)
    u = np.stack([
        1.0 + (k - 1 - ids) * eps,  # one rank-key run, descending in client order: re-sorted
        -(1.0 + ids * eps),  # the same, negative
        1.0 + ids * eps,  # one run, already ascending: kept
        rng.standard_normal(k),
        rng.integers(-2, 3, k) + 0.0,  # ties
        rng.choice([0.0, -0.0, np.nan, -np.nan], k),
        rng.choice([np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0], k),
        np.where(ids % 2, 1.0 + (k - ids) * eps, -np.nan),  # out of order, NaNs among them
    ], axis=1)
    weights = rng.integers(0, 4, k)
    want = stable_weighted_median(u, weights)
    resorted, argsort = [], np.argsort

    def spy(a, *args, **kwargs):
        resorted.append(a.copy())
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    assert aggregate_weighted_median(u, weights).tobytes() == want.tobytes()
    assert np.concatenate(resorted).tobytes() == u.T[[0, 1, 7]].tobytes()
    resorted.clear()
    clean = np.random.default_rng(2000).standard_normal((2000, 210))
    aggregate_weighted_median(clean, np.ones(2000))
    aggregate_trimmed_mean(clean, np.ones(2000), 0.1)
    assert resorted == []


def test_robust_aggregators_with_blocks_of_one_column():
    # K >= 2^15 puts one column in a block; the trimmed mean still sums
    # down the clients one at a time, never pairwise down a contiguous column
    k = 2**15 + 3
    u, weights = zero_and_nan_runs(k, 3, 1, 0.0)
    u[:, 2] = np.random.default_rng(2).standard_normal(k) * 1e3
    assert_matches_stable_sort(u, weights)
    assert_matches_stable_sort(*zero_and_nan_runs(k, 2, 3, np.nan))


def test_trimmed_mean_sums_the_full_width_once():
    # (2 000, 211) with NaN and inf: 211 columns are not a whole number of
    # 16-column blocks, and NaN bits change if the blocks are summed apart
    rng = np.random.default_rng(8)
    u = rng.standard_normal((2000, 211))
    special = rng.random(u.shape) < 0.05
    u[special] = rng.choice([np.nan, -np.nan, np.inf, -np.inf], special.sum())
    u[:, 200:] = rng.choice([np.inf, -np.inf, np.nan, 1.0], (2000, 11))
    weights = rng.integers(0, 10, 2000)
    with np.errstate(invalid="ignore"):
        for beta in (0.0, 0.1, 0.25):
            want = stable_trimmed_mean(u, weights, beta)
            assert np.isnan(want).any()
            assert aggregate_trimmed_mean(u, weights, beta).tobytes() == want.tobytes()


def test_rank_is_stable_argsort():
    u = np.array([[0.0, 2.0], [-0.0, np.nan], [1.0, 2.0], [0.0, -np.nan], [-1.0, -np.inf]])
    ut = np.ascontiguousarray(u.T)
    order, values = engine._rank(ut)
    assert order.tolist() == [[4, 0, 1, 3, 2], [4, 0, 2, 1, 3]]
    assert values.tobytes() == np.take_along_axis(ut, order, axis=1).tobytes()
    # the lower median of 0.0, -0.0, 0.0 is the second in client order
    assert np.signbit(aggregate_weighted_median([[0.0], [-0.0], [0.0]], [1, 1, 1])[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", [WeightedMean(), WeightedMedian(), TrimmedMean(0.1)],
                         ids=["mean", "median", "trimmed"])
def test_non_finite_weights_rejected(kind, bad):
    with pytest.raises(ValueError, match="^weights must be finite and non-negative$"):
        aggregate(kind, [np.array([1.0]), np.array([2.0])], [bad, 1.0])


@pytest.mark.parametrize("kind", [WeightedMean(), WeightedMedian(), TrimmedMean(0.1)],
                         ids=["mean", "median", "trimmed"])
def test_weights_and_totals_beyond_float_range_rejected(kind):
    # an int past the float range raised OverflowError; a total that overflowed
    # to inf gave NaN (trimmed) or 0 (mean, median) with only a RuntimeWarning
    big = np.finfo(float).max
    first_inf = 2**1024 - 2**970  # the least integer that rounds to inf
    u = [np.array([0.5]), np.array([0.25])]
    for weights in ([first_inf - 1, 1], [big / 2, big / 2]):  # each total rounds to big
        assert np.isfinite(aggregate(kind, u, weights)).all()
    for weights in ([first_inf, 1], [10**330, 1], [big / 2, np.nextafter(big / 2, np.inf)], [big, big]):
        with pytest.raises(ValueError, match="^weights must be finite and non-negative$"):
            aggregate(kind, u, weights)


# ----------------------------------------------------------------- selection


def test_select_clients_full_and_sampled():
    assert select_clients(3, 5, None, 0) == (0, 1, 2, 3, 4)
    assert select_clients(3, 5, 5, 0) == (0, 1, 2, 3, 4)
    picked = select_clients(9, 20, 6, 123)
    assert picked == select_clients(9, 20, 6, 123)
    assert len(picked) == 6 and len(set(picked)) == 6
    assert picked != select_clients(10, 20, 6, 123)
    assert len(select_clients(1, 10, 0.25, 0)) == 3


def test_select_clients_inclusion_frequency():
    hits = np.zeros(10)
    rounds = 10_000
    for t in range(rounds):
        for cid in select_clients(t, 10, 3, 42):
            hits[cid] += 1
    freq = hits / rounds
    sigma = np.sqrt(0.3 * 0.7 / rounds)
    assert np.all(np.abs(freq - 0.3) <= 3 * sigma + 1e-9)


# -------------------------------------------------------------- run_training


def blob_clients(n_clients=6, behavior_map=None, seed=0):
    sizes = [30 + 5 * i for i in range(n_clients)]
    ds = generate_blobs(sum(sizes), dim=6, classes=3, seed=seed)
    shards = split_by_sizes(ds, sizes, seed=seed + 1)
    clients = []
    for i, shard in enumerate(shards):
        behavior = (behavior_map or {}).get(i, Behavior.HONEST)
        declared = len(shard) if behavior is Behavior.HONEST else 10**6
        clients.append(ClientSpec(i, shard, declared, behavior))
    return clients


def test_zero_rounds_returns_initial_model():
    model = SoftmaxRegression(dim=6, classes=3)
    clients = blob_clients()
    test = generate_blobs(100, dim=6, classes=3, seed=9)
    cfg = toy_config(rounds=0, batch_size=16)
    [(w, metrics)] = run_training(model, clients, test, [cfg])
    assert metrics == []
    assert np.array_equal(w, np.zeros(model.param_count))


def test_training_is_deterministic_and_learns():
    model = SoftmaxRegression(dim=6, classes=3)
    clients = blob_clients()
    test = generate_blobs(300, dim=6, classes=3, seed=10)
    cfg = toy_config(rounds=15, eta=0.3, batch_size=16, master_seed=5)
    [(w1, m1)] = run_training(model, clients, test, [cfg])
    [(w2, m2)] = run_training(model, clients, test, [cfg])
    assert np.array_equal(w1, w2)
    assert m1 == m2
    assert len(m1) == 15
    assert m1[-1].test_accuracy >= 0.9
    assert m1[-1].test_loss < m1[0].test_loss


def spy_aggregation(monkeypatch) -> list:
    """Record (round, selected ids, weights as aggregated) for each round."""
    seen, select, aggregate_as_is = [], engine.select_clients, engine.aggregate

    def select_spy(t, *args):
        ids = select(t, *args)
        seen.append((t, ids))
        return ids

    def aggregate_spy(kind, updates, weights):
        (row,) = weights  # a group of one cell aggregates one weight row
        seen[-1] += (tuple(row),)
        return aggregate_as_is(kind, updates, weights)

    monkeypatch.setattr(engine, "select_clients", select_spy)
    monkeypatch.setattr(engine, "aggregate", aggregate_spy)
    return seen


def test_aggregation_sees_preprocessed_weights_only(monkeypatch):
    model = SoftmaxRegression(dim=6, classes=3)
    clients = blob_clients(behavior_map={2: Behavior.MODEL_NEGATION})
    test = generate_blobs(60, dim=6, classes=3, seed=11)
    seen = spy_aggregation(monkeypatch)
    cfg = toy_config(
        rounds=3,
        batch_size=16,
        preprocess=Truncate(TruncationQuery("1/6", "1/3")),
        clients_per_round=4,
    )
    run_training(model, clients, test, [cfg])
    expected = preprocess([c.declared_size for c in clients], cfg.preprocess)
    assert len(seen) == 3
    for t, ids, weights in seen:
        assert weights == tuple(expected[i] for i in ids)
    assert expected[2] < 10**6  # the liar was actually capped


def test_ignore_mode_weights_everyone_equally(monkeypatch):
    model = SoftmaxRegression(dim=6, classes=3)
    clients = blob_clients(behavior_map={1: Behavior.MODEL_NEGATION})
    test = generate_blobs(60, dim=6, classes=3, seed=12)
    seen = spy_aggregation(monkeypatch)
    cfg = toy_config(rounds=1, batch_size=16, preprocess=Ignore())
    run_training(model, clients, test, [cfg])
    assert seen[0][2] == (1,) * 6


def test_sample_budget_is_the_preprocessed_weight():
    # With honest_use_all_samples = false every client that trains, label-shift
    # attackers included, uses one fixed subset of min(weight, rows) samples
    # for the whole run; under ignore that is a single sample.
    seen = []

    class Recording(ScalarQuadratic):
        def gradient(self, w, batch, dropout_rng=None):
            for rows in batch.features:
                seen.append((int(rows[0, 0]), sorted(rows[:, 1].tolist())))
            return super().gradient(w, batch, dropout_rng)

    clients = []
    for cid, n in enumerate((3, 4, 5, 6)):
        rows = Dataset(np.column_stack([np.full(n, cid), np.arange(n)]), np.zeros(n, dtype=np.int64))
        if cid == 3:
            clients.append(ClientSpec(cid, rows, 100, Behavior.LABEL_SHIFT))
        else:
            clients.append(ClientSpec(cid, rows, n))
    for mode, use_all, budget in (
        (Passthrough(), False, [3, 4, 5, 6]),
        (Ignore(), False, [1, 1, 1, 1]),
        (Ignore(), True, [3, 4, 5, 6]),
        (Truncate(TruncationQuery("1/2", "1/2")), False, [3, 3, 3, 3]),  # cap 3
    ):
        seen.clear()
        cfg = toy_config(rounds=2, batch_size=100, preprocess=mode, honest_use_all_samples=use_all)
        run_training(Recording(), clients, clients[0].data, [cfg])
        first, second = seen[:4], seen[4:]
        assert [cid for cid, _ in first] == [0, 1, 2, 3]
        assert [len(used) for _, used in first] == budget
        assert first == second


def test_lockstep_runs_equal_runs_alone_to_the_sign_of_zero(monkeypatch):
    # two runs start a round from 0.0 and -0.0: equal values, different bytes,
    # so they train apart, and every run ends with the bytes it has alone
    clients = [ClientSpec(0, scalar_data(-0.0), 1),
               ClientSpec(1, scalar_data(1.0), 3, Behavior.MODEL_NEGATION),
               ClientSpec(2, scalar_data(-1.0), 1)]
    cfgs = [toy_config(rounds=4, eta=1.0, preprocess=p, aggregator=a)
            for p in (Passthrough(), Ignore())
            for a in (WeightedMean(), WeightedMedian(), TrimmedMean(0.1), TrimmedMean(0.3))]
    starts, update = [], engine.client_update

    def spy(model, w, plan, *rest):
        starts.append((plan.round, w.copy()))
        return update(model, w, plan, *rest)

    monkeypatch.setattr(engine, "client_update", spy)
    together = run_training(ScalarQuadratic(), clients, scalar_data(0.0), cfgs)
    assert any(t == u and a == b and a.tobytes() != b.tobytes()
               for i, (t, a) in enumerate(starts) for u, b in starts[i + 1:])
    for cfg, (w, metrics) in zip(cfgs, together):
        [(alone, alone_metrics)] = run_training(ScalarQuadratic(), clients, scalar_data(0.0), [cfg])
        assert w.tobytes() == alone.tobytes() and metrics == alone_metrics


def test_norm_at_the_float_tails():
    # np.linalg.norm sums squares: past 2^512 they overflow to inf (with a
    # warning), and below about 2^-537 they underflow to a norm of 0
    base = np.random.default_rng(17).standard_normal(50)
    base[::7] = 0.0
    inside = []  # base's largest |entry| is about 2^1.3
    for e in (-1070, -1000, -600, -502, -501, -20, 0, 20, 497, 498, 499, 600, 1000, 1015):
        w = np.ldexp(base, e)
        got = engine._norm(w)
        assert math.isclose(got, math.hypot(*w.tolist()), rel_tol=1e-14), e
        if 2.0**-500 <= np.abs(w).max() <= 2.0**500:
            assert got == float(np.linalg.norm(w)), e  # the same bits inside the band
            inside.append(e)
    assert inside == [-501, -20, 0, 20, 497, 498]
    assert engine._norm(np.array([1.7e308, 1.7e308])) == math.inf == math.hypot(1.7e308, 1.7e308)
    assert engine._norm(np.zeros(3)) == 0.0
    assert math.isnan(engine._norm(np.array([1.0, math.nan])))


def test_round_metrics_report_a_tiny_aggregate_norm():
    # a liar declaring 10^308 under passthrough x mean scales the honest
    # update by about 10^-309, and its square underflowed to a norm of 0
    clients = [ClientSpec(0, scalar_data(1.0), 1),
               ClientSpec(1, scalar_data(1.0), 10**308, Behavior.MODEL_NEGATION)]
    [(w, metrics)] = run_training(ScalarQuadratic(), clients, scalar_data(1.0), [toy_config()])
    assert 0 < abs(w[0]) < 1e-300
    assert metrics[0].aggregate_norm == abs(w[0])


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_flagged_and_terminal():
    model = ScalarQuadratic()
    client = ClientSpec(0, scalar_data(1.0), 1)
    test = scalar_data(1.0)
    cfg = toy_config(rounds=500, eta=1000.0)
    [(w, metrics)] = run_training(model, [client], test, [cfg])
    assert math.isnan(metrics[-1].test_accuracy) and math.isnan(metrics[-1].test_loss)
    assert len(metrics) < 500
    assert not any(math.isnan(m.test_accuracy) or math.isnan(m.test_loss) for m in metrics[:-1])
    assert not np.all(np.isfinite(w))


def test_duplicate_or_gapped_ids_rejected():
    c = scalar_data(1.0)
    with pytest.raises(ValueError):
        run_training(
            ScalarQuadratic(),
            [ClientSpec(0, c, 1), ClientSpec(0, c, 1)],
            c,
            [toy_config()],
        )
    with pytest.raises(ValueError):
        run_training(
            ScalarQuadratic(),
            [ClientSpec(1, c, 1), ClientSpec(3, c, 1)],
            c,
            [toy_config()],
        )


def test_metrics_csv_shape():
    records = [RoundMetrics(1, 0.5, 1.25, 3.0), RoundMetrics(2, 0.625, 1.0, 2.5)]
    text = metrics_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == METRICS_CSV_HEADER == "round,test_accuracy,test_loss,aggregate_norm"
    assert lines[1] == "1,0.5,1.25,3.0"
    assert text.endswith("\n") and "\r" not in text


def test_config_validation():
    with pytest.raises(ValueError):
        toy_config(rounds=-1)
    with pytest.raises(ValueError):
        toy_config(eta=0.0)
    with pytest.raises(ValueError):
        toy_config(epochs=0)
    with pytest.raises(ValueError):
        toy_config(batch_size=0)
    for bad in (
        dict(eta=float("nan")),
        dict(eta=-float("inf")),
        dict(epochs=-1),
        dict(batch_size=0.0),
        dict(batch_size=1.5),
        dict(batch_size=float("nan")),
    ):
        with pytest.raises(ValueError):
            toy_config(**bad)
    for good in (dict(rounds=0), dict(batch_size=1.0), dict(batch_size=1e-9)):
        toy_config(**good)
