"""Task-layer tests: partition exactness, data generation, analytic gradients."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import oracles
from byzweight.engine import Behavior, Clients
from byzweight.tasks import (
    Dataset,
    InfeasibleTotal,
    OneHiddenMLP,
    PartitionSpec,
    SizeMismatch,
    SoftmaxRegression,
    accuracy,
    generate_blobs,
    generate_partition,
    objective_gap,
    split_by_sizes,
)

# ------------------------------------------------------------------ partition


def test_partition_sums_exactly_and_floors_at_one():
    spec = PartitionSpec(total_samples=20_000, clients=100, seed=5)
    v = generate_partition(spec)
    assert sum(v) == 20_000
    assert min(v) >= 1
    assert len(v) == 100
    assert v.dtype == np.int64  # the array split_by_sizes takes


def test_partition_deterministic_in_seed():
    spec = PartitionSpec(total_samples=5_000, clients=40, seed=11)
    assert np.array_equal(generate_partition(spec), generate_partition(spec))
    other = generate_partition(PartitionSpec(total_samples=5_000, clients=40, seed=12))
    assert not np.array_equal(other, generate_partition(spec))


def test_partition_sigma_zero_is_even():
    v = generate_partition(PartitionSpec(total_samples=1_003, clients=10, sigma=0.0, seed=3))
    assert sum(v) == 1_003
    assert max(v) - min(v) <= 1


def test_partition_single_client_and_infeasible():
    v = generate_partition(PartitionSpec(total_samples=17, clients=1, seed=0))
    assert v.tolist() == [17]
    with pytest.raises(InfeasibleTotal):
        generate_partition(PartitionSpec(total_samples=5, clients=6, seed=0))


def test_partition_heavy_tail():
    v = generate_partition(PartitionSpec(total_samples=60_000, clients=100, seed=1))
    # sigma=3.45 is strongly right-skewed: the largest client dwarfs the median
    assert max(v) > 0.2 * 60_000
    assert sorted(v)[50] < 60_000 / 100


# ----------------------------------------------------------------------- data


def test_blobs_shapes_and_determinism():
    ds = generate_blobs(500, dim=8, classes=4, seed=2)
    assert ds.features.shape == (500, 8)
    assert ds.labels.shape == (500,)
    assert ds.labels.min() >= 0 and ds.labels.max() < 4
    again = generate_blobs(500, dim=8, classes=4, seed=2)
    assert np.array_equal(ds.features, again.features)
    assert np.array_equal(ds.labels, again.labels)
    other = generate_blobs(500, dim=8, classes=4, seed=3)
    assert not np.array_equal(ds.features, other.features)


def test_blobs_roughly_equal_priors():
    ds = generate_blobs(10_000, dim=6, classes=5, seed=7)
    counts = np.bincount(ds.labels, minlength=5)
    assert counts.min() > 10_000 / 5 - 4 * math.sqrt(10_000 * 0.2 * 0.8)


def test_blobs_single_class_and_dim_guard():
    ds = generate_blobs(50, dim=3, classes=1, seed=0)
    assert set(ds.labels.tolist()) == {0}
    with pytest.raises(ValueError):
        generate_blobs(50, dim=3, classes=4, seed=0)
    with pytest.raises(ValueError, match="^need at least one sample$"):
        generate_blobs(0, dim=3, classes=1, seed=0)


def test_blob_classes_are_linearly_separable():
    train = generate_blobs(2_000, dim=10, classes=5, seed=21)
    test = generate_blobs(1_000, dim=10, classes=5, seed=22)
    model = SoftmaxRegression(dim=10, classes=5)
    w = model.init_params()
    for _ in range(200):
        w = w - 0.5 * model.gradient(w, train)
    assert accuracy(model, w, test) >= 0.95


def test_split_by_sizes_exact_and_disjoint():
    ds = generate_blobs(100, dim=4, classes=2, seed=1)
    data, sizes = split_by_sizes(ds, [10, 30, 60], seed=5)
    shards = [c.data for c in Clients(data, sizes, sizes, [Behavior.HONEST] * 3)]
    assert sizes.dtype == np.int64 and [len(s) for s in shards] == [10, 30, 60]
    stacked = np.vstack([s.features for s in shards])
    assert stacked.shape == ds.features.shape
    # every original row appears exactly once across shards
    order = np.lexsort(stacked.T)
    base = np.lexsort(ds.features.T)
    assert np.allclose(stacked[order], ds.features[base])
    again, _ = split_by_sizes(ds, [10, 30, 60], seed=5)
    assert np.array_equal(data.features, again.features)
    with pytest.raises(SizeMismatch, match="^sizes sum to 40 but the dataset holds 100 rows$"):
        Clients(*split_by_sizes(ds, [10, 30], seed=5), [10, 30], [Behavior.HONEST] * 2)


def test_split_by_sizes_hands_out_views_of_one_shuffle():
    # client i's rows are perm[start:start + size] of the seed's permutation,
    # as its own gather made them, and every client's rows are a view of the
    # one shuffled copy
    ds = generate_blobs(50, dim=4, classes=3, seed=2)
    sizes = [1, 7, 1, 30, 11]
    data, got = split_by_sizes(ds, sizes, seed=9)
    assert got.tolist() == sizes
    perm = np.random.default_rng(9).permutation(50)
    ends = np.cumsum(sizes)
    for client, start, end in zip(Clients(data, got, got, [Behavior.HONEST] * 5), ends - sizes, ends):
        assert client.data.features.tobytes() == ds.features[perm[start:end]].tobytes()
        assert client.data.labels.tobytes() == ds.labels[perm[start:end]].tobytes()
        assert client.data.features.base is data.features
        assert client.data.labels.base is data.labels


def test_subset_by_indices_mask_and_stack():
    ds = generate_blobs(6, dim=3, classes=3, seed=4)
    picked = ds.subset(np.array([4, 0, 4, -1]))
    assert picked.features.tobytes() == ds.features[[4, 0, 4, 5]].tobytes()
    assert picked.labels.tolist() == ds.labels[[4, 0, 4, 5]].tolist()
    # a boolean mask selects the rows where it is true, not rows 0 and 1
    mask = np.array([False, True, False, False, True, True])
    masked = ds.subset(mask)
    assert masked.features.tobytes() == ds.features[[1, 4, 5]].tobytes()
    assert masked.labels.tolist() == ds.labels[[1, 4, 5]].tolist()
    # a 2-D index gathers a stack of batches for the stacked gradient
    stack = ds.subset(np.array([[0, 1], [5, 2]], dtype=np.uint64))
    assert stack.features.shape == (2, 2, 3) and stack.labels.shape == (2, 2)
    assert stack.features[1].tobytes() == ds.features[[5, 2]].tobytes()
    with pytest.raises(IndexError):
        ds.subset(np.array([6]))


# --------------------------------------------------------------------- models


def ref_softmax_loss(model, w, batch):
    d, c = model.dim, model.classes
    weight = [[w[i * c + j] for j in range(c)] for i in range(d)]
    bias = [w[d * c + j] for j in range(c)]
    total = 0.0
    for row, label in zip(batch.features, batch.labels):
        logits = [sum(row[i] * weight[i][j] for i in range(d)) + bias[j] for j in range(c)]
        m = max(logits)
        lse = m + math.log(sum(math.exp(x - m) for x in logits))
        total += lse - logits[label]
    return total / len(batch)


def ref_mlp_eval_loss(model, w, batch):
    d, h, c = model.dim, model.hidden, model.classes
    keep = 1.0 - model.dropout_rate
    off = 0
    w1 = [[w[off + i * h + j] for j in range(h)] for i in range(d)]
    off += d * h
    b1 = [w[off + j] for j in range(h)]
    off += h
    w2 = [[w[off + i * c + j] for j in range(c)] for i in range(h)]
    off += h * c
    b2 = [w[off + j] for j in range(c)]
    total = 0.0
    for row, label in zip(batch.features, batch.labels):
        hid = [max(sum(row[i] * w1[i][j] for i in range(d)) + b1[j], 0.0) * keep for j in range(h)]
        logits = [sum(hid[j] * w2[j][k] for j in range(h)) + b2[k] for k in range(c)]
        m = max(logits)
        lse = m + math.log(sum(math.exp(x - m) for x in logits))
        total += lse - logits[label]
    return total / len(batch)


def test_softmax_loss_at_zero_params():
    batch = generate_blobs(64, dim=7, classes=7, seed=4)
    model = SoftmaxRegression(dim=7, classes=7)
    assert model.loss(model.init_params(), batch) == pytest.approx(math.log(7), abs=1e-12)


def test_softmax_loss_matches_scalar_reference():
    rng = np.random.default_rng(13)
    for _ in range(10):
        model = SoftmaxRegression(dim=4, classes=3)
        batch = generate_blobs(17, dim=4, classes=3, seed=int(rng.integers(1e9)))
        w = rng.standard_normal(model.param_count)
        assert model.loss(w, batch) == pytest.approx(
            ref_softmax_loss(model, w, batch), abs=1e-10
        )


def test_mlp_eval_loss_matches_scalar_reference():
    rng = np.random.default_rng(14)
    model = OneHiddenMLP(dim=4, hidden=6, classes=3, dropout_rate=0.2)
    for _ in range(6):
        batch = generate_blobs(11, dim=4, classes=3, seed=int(rng.integers(1e9)))
        w = rng.standard_normal(model.param_count)
        assert model.loss(w, batch) == pytest.approx(
            ref_mlp_eval_loss(model, w, batch), abs=1e-10
        )


def test_loss_invariant_under_batch_duplication():
    model = SoftmaxRegression(dim=5, classes=4)
    batch = generate_blobs(20, dim=5, classes=4, seed=9)
    doubled = Dataset(
        np.vstack([batch.features, batch.features]),
        np.concatenate([batch.labels, batch.labels]),
    )
    w = np.random.default_rng(1).standard_normal(model.param_count)
    assert model.loss(w, doubled) == pytest.approx(model.loss(w, batch), rel=1e-12)


@pytest.mark.parametrize(
    "model, shape",
    [
        (SoftmaxRegression(dim=4, classes=3), (2, 2, 4)),
        (SoftmaxRegression(dim=4, classes=3), (2, 5, 4)),
        (OneHiddenMLP(dim=4, hidden=5, classes=3, dropout_rate=0.0), (3, 3, 4)),
        (OneHiddenMLP(dim=4, hidden=5, classes=3, dropout_rate=0.0), (2, 5, 4)),
    ],
)
def test_loss_refuses_a_stack(model, shape):
    # loss read slice 0's logits with every slice's labels: a number when
    # m == L (1.3517526013328338 and 1.5258206223239548 here), else IndexError
    rng = np.random.default_rng(0)
    stack = Dataset(rng.standard_normal(shape), rng.integers(0, 3, size=shape[:2]))
    w = rng.standard_normal((shape[0], model.param_count))
    with pytest.raises(ValueError, match="not a stack"):
        model.loss(w, stack)


@pytest.mark.parametrize(
    "model", [SoftmaxRegression(dim=4, classes=3), OneHiddenMLP(dim=4, hidden=5, classes=3)]
)
def test_gradient_refuses_an_empty_or_misshaped_batch(model):
    w = np.zeros(model.param_count)
    with pytest.raises(ValueError, match="^batch must be non-empty$"):
        model.gradient(w, Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)))
    with pytest.raises(ValueError, match="^batch dimension 5 != model dimension 4$"):
        model.gradient(w, Dataset(np.zeros((2, 5)), np.zeros(2, dtype=np.int64)))


def test_mlp_init_needs_a_stream():
    with pytest.raises(ValueError, match="^hidden-layer init needs a randomness stream$"):
        OneHiddenMLP(dim=4, hidden=5, classes=3).init_params(None)


def test_models_share_one_cross_entropy_path():
    # each model defines its forward pass only; the three methods are one function each
    for name in ("loss", "gradient", "predict"):
        assert vars(SoftmaxRegression)[name] is vars(OneHiddenMLP)[name]
    assert not hasattr(SoftmaxRegression, "_logits") and not hasattr(OneHiddenMLP, "_unpack")


def finite_difference(loss_fn, w, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(len(w)):
        up = w.copy()
        up[i] += h
        down = w.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return grad


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    model = SoftmaxRegression(dim=5, classes=3)
    for _ in range(5):
        batch = generate_blobs(13, dim=5, classes=3, seed=int(rng.integers(1e9)))
        w = rng.standard_normal(model.param_count)
        fd = finite_difference(lambda v: model.loss(v, batch), w)
        assert relative_error(model.gradient(w, batch), fd) <= 1e-5


def test_mlp_gradient_matches_finite_differences_eval_and_train():
    rng = np.random.default_rng(32)
    model = OneHiddenMLP(dim=4, hidden=6, classes=3, dropout_rate=0.2)
    for trial in range(5):
        batch = generate_blobs(9, dim=4, classes=3, seed=int(rng.integers(1e9)))
        w = rng.standard_normal(model.param_count)
        fd = finite_difference(lambda v: model.loss(v, batch), w)
        assert relative_error(model.gradient(w, batch), fd) <= 1e-5
        # training mode: the same mask for every evaluation
        mask_seed = 1000 + trial
        fd = finite_difference(
            lambda v: model.loss(v, batch, np.random.default_rng(mask_seed)), w
        )
        got = model.gradient(w, batch, np.random.default_rng(mask_seed))
        assert relative_error(got, fd) <= 1e-5


def test_mlp_dropout_stream_pairing():
    model = OneHiddenMLP(dim=4, hidden=8, classes=3, dropout_rate=0.5)
    batch = generate_blobs(30, dim=4, classes=3, seed=3)
    w = np.random.default_rng(0).standard_normal(model.param_count)
    a = model.loss(w, batch, np.random.default_rng(42))
    b = model.loss(w, batch, np.random.default_rng(42))
    c = model.loss(w, batch, np.random.default_rng(43))
    assert a == b
    assert a != c
    # with no dropped units, training equals the unscaled network; evaluation
    # scales activations by the keep probability and stays deterministic
    plain = OneHiddenMLP(dim=4, hidden=8, classes=3, dropout_rate=0.0)
    rng = np.random.default_rng(7)
    assert plain.loss(w, batch, rng) == plain.loss(w, batch, None)
    assert np.array_equal(plain.gradient(w, batch, rng), plain.gradient(w, batch, None))
    # so no mask is drawn and the stream is left where it was
    assert rng.random() == np.random.default_rng(7).random()


def _reference_softmax(logits):
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def reference_gradient(model, w, features, labels, dropout_rng=None):
    """One batch's gradient written out on 2-D arrays, independent of stacking."""
    n = len(labels)
    d, c = model.dim, model.classes
    if isinstance(model, SoftmaxRegression):
        scores = _reference_softmax(features @ w[: d * c].reshape(d, c) + w[d * c :])
        scores[np.arange(n), labels] -= 1.0
        scores /= n
        return np.concatenate([(features.T @ scores).ravel(), scores.sum(axis=0)])
    h, rate = model.hidden, model.dropout_rate
    w1, b1 = w[: d * h].reshape(d, h), w[d * h : d * h + h]
    w2, b2 = w[d * h + h : d * h + h + h * c].reshape(h, c), w[d * h + h + h * c :]
    pre = features @ w1 + b1
    act = np.maximum(pre, 0.0)
    keep = (dropout_rng.random(act.shape) >= rate) if dropout_rng is not None and rate > 0 else 1.0 - rate
    hidden = act * keep
    scores = _reference_softmax(hidden @ w2 + b2)
    scores[np.arange(n), labels] -= 1.0
    scores /= n
    grad_pre = (scores @ w2.T) * keep * (pre > 0)
    return np.concatenate(
        [(features.T @ grad_pre).ravel(), grad_pre.sum(axis=0), (hidden.T @ scores).ravel(), scores.sum(axis=0)]
    )


@pytest.mark.parametrize(
    "model, m, length",
    [
        (SoftmaxRegression(dim=20, classes=10), 300, 1),  # train-crowd's one-row clients
        (SoftmaxRegression(dim=20, classes=10), 30, 7),
        (SoftmaxRegression(dim=6, classes=3), 9, 4),  # the softmax golden
        (OneHiddenMLP(dim=20, hidden=64, classes=10, dropout_rate=0.0), 6, 100),  # the acceptance task
        (OneHiddenMLP(dim=20, hidden=64, classes=10, dropout_rate=0.0), 5, 1),
        (OneHiddenMLP(dim=20, hidden=64, classes=10, dropout_rate=0.0), 1, 37),
        (OneHiddenMLP(dim=6, hidden=8, classes=3, dropout_rate=0.2), 12, 2),  # the dropout golden
        (OneHiddenMLP(dim=6, hidden=8, classes=3, dropout_rate=0.2), 4, 1),
        (OneHiddenMLP(dim=6, hidden=8, classes=3, dropout_rate=0.0), 7, 4),
    ],
)
def test_stacked_gradient_is_per_slice_bit_for_bit(model, m, length):
    # every row of a stacked call, and the 2-D call on that row's batch (the
    # stack of one), equals the batch's gradient computed on its own, with
    # X^T and W2^T products and one-row batches included
    rng = np.random.default_rng(m * 1000 + length)
    w = rng.standard_normal((m, model.param_count)) * 0.5
    features = rng.standard_normal((m, length, model.dim))
    labels = rng.integers(0, model.classes, size=(m, length))
    drops = getattr(model, "dropout_rate", 0) > 0

    def streams():
        return [np.random.default_rng((7, k)) if drops else None for k in range(m)]

    stacked = model.gradient(w, Dataset(features, labels), streams() if drops else None)
    assert stacked.shape == (m, model.param_count)
    for k, (one_rng, ref_rng) in enumerate(zip(streams(), streams())):
        want = reference_gradient(model, w[k], features[k], labels[k], ref_rng)
        assert np.array_equal(stacked[k], want)
        assert np.array_equal(model.gradient(w[k], Dataset(features[k], labels[k]), one_rng), want)


def test_stacked_dataset_shapes():
    stack = Dataset(np.zeros((3, 2, 4)), np.zeros((3, 2)))
    assert len(stack) == 3 and stack.dim == 4
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2, 4)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2, 4, 1)), np.zeros((3, 2, 4)))


def test_global_objective_decomposes_over_clients():
    ds = generate_blobs(3_000, dim=6, classes=4, seed=17)
    sizes = generate_partition(PartitionSpec(3_000, 25, seed=6))
    shards = oracles.shards(*split_by_sizes(ds, sizes, seed=7))
    model = SoftmaxRegression(dim=6, classes=4)
    w = np.random.default_rng(3).standard_normal(model.param_count)
    whole = model.loss(w, ds)
    recombined = sum(len(s) * model.loss(w, s) for s in shards) / 3_000
    assert recombined == pytest.approx(whole, abs=1e-10)


# ------------------------------------------------------------- objective gap


def _gap_instance(rng, k=8, liars=1, inflation=10**6):
    sizes = [int(x) for x in rng.integers(20, 100, size=k)]
    ds = generate_blobs(sum(sizes), dim=5, classes=3, seed=int(rng.integers(1e9)))
    shards = oracles.shards(*split_by_sizes(ds, sizes, seed=int(rng.integers(1e9))))
    declared = [len(s) for s in shards]
    for i in rng.choice(k, size=liars, replace=False):
        declared[i] = inflation + int(rng.integers(0, 1000))
    model = SoftmaxRegression(dim=5, classes=3)
    w = rng.standard_normal(model.param_count) * 0.25
    return model, w, shards, declared


def test_gap_zero_when_cap_covers_everyone():
    rng = np.random.default_rng(51)
    model, w, shards, declared = _gap_instance(rng, liars=0)
    lhs, rhs = objective_gap(model, w, shards, declared, cap=max(declared))
    assert lhs == 0.0 and rhs == 0.0


def test_gap_bound_holds_on_random_instances():
    # caps sit above every truthful size, so only over-declared clients are
    # flattened; below that the inequality has documented counterexamples
    rng = np.random.default_rng(52)
    for _ in range(30):
        liars = int(rng.integers(0, 3))
        model, w, shards, declared = _gap_instance(rng, liars=liars)
        honest_max = max(len(s) for s in shards)
        caps = [2 * honest_max, 4 * honest_max, 8 * honest_max, max(declared)]
        for cap in caps:
            lhs, rhs = objective_gap(model, w, shards, declared, cap=cap)
            assert lhs <= rhs + 1e-9


def test_gap_grows_with_inflation():
    rng = np.random.default_rng(53)
    model, w, shards, declared = _gap_instance(rng, liars=0)
    cap = max(len(s) for s in shards)
    gaps = []
    for inflation in (10**4, 10**5, 10**6):
        lying = list(declared)
        lying[0] = inflation
        lhs, _ = objective_gap(model, w, shards, lying, cap=cap)
        gaps.append(lhs)
    assert gaps[0] < gaps[1] < gaps[2]


def test_gap_input_validation():
    rng = np.random.default_rng(54)
    model, w, shards, declared = _gap_instance(rng)
    with pytest.raises(SizeMismatch):
        objective_gap(model, w, shards, declared[:-1], cap=5)
    with pytest.raises(ValueError, match="^declared counts must carry positive total weight$"):
        objective_gap(model, w, shards, [0] * len(shards), cap=5)
    # counts take the one weight guard, exact_counts: 10.9 was read as 10,
    # and -5 and "10" were taken too
    for bad, shown in ((10.9, "10.9"), (-5, "-5"), ("10", "'10'"), (None, "None")):
        message = f"weights must be non-negative integers, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            objective_gap(model, w, shards, [bad] + declared[1:], cap=5)
    # a cap is an integer too: 7.5 and 7.0 were used as they came
    for cap, shown in ((7.5, "7.5"), (7.0, "7.0"), (np.float64(7.0), "np.float64(7.0)")):
        message = f"cap (--u) must be an integer, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            objective_gap(model, w, shards, declared, cap=cap)
    with pytest.raises(ValueError, match=r"^cap \(--u\) must be positive, got 0$"):
        objective_gap(model, w, shards, declared, cap=0)
    assert objective_gap(model, w, shards, declared, cap=np.uint64(7)) == objective_gap(
        model, w, shards, declared, cap=7)


def test_gap_counts_past_int64_stay_exact():
    # a count of 2^63 or 2^64 is a Python int, as [int(x) for x in declared]
    # made it: the values are those that list gave, from a list or an array
    rng = np.random.default_rng(54)
    model, w, shards, declared = _gap_instance(rng)
    for big, cap, want in (
        (2**63, 5, (0.15972072715094576, 0.15972072715094604)),
        (2**63, 100, (0.14395898391011253, 0.514669421120596)),
        (2**64, 5, (0.15972072715096042, 0.15972072715096008)),
        (2**64, 100, (0.14395898391012718, 0.5146694211206102)),
    ):
        lying = [big] + declared[1:]
        assert objective_gap(model, w, shards, lying, cap=cap) == want
        assert objective_gap(model, w, shards, np.array(lying, object), cap=cap) == want

