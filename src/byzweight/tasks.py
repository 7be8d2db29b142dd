"""Synthetic classification task, client data partitioning, and models.

Gaussian blobs with one scaled basis vector per class, split across clients
by a heavy-tailed lognormal partition (many tiny clients, a few huge ones).
Two models, a softmax classifier and a one-hidden-layer ReLU network with
dropout, each define only `_forward`: stacked (m, P) parameters and (m, L, d)
features give (m, L, c) logits and the map from their gradient to the
parameter gradients.  Cross-entropy `loss`, `gradient` and `predict` are shared.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

import numpy as np

from .weights import exact_cap, exact_counts


class InfeasibleTotal(ValueError):
    """Cannot give every client at least one sample."""


class SizeMismatch(ValueError):
    """Partition sizes and dataset rows disagree."""


@dataclass(frozen=True)
class PartitionSpec:
    total_samples: int
    clients: int
    mu: float = 1.5
    sigma: float = 3.45
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.total_samples < self.clients:
            raise InfeasibleTotal(
                f"{self.total_samples} samples cannot cover {self.clients} clients"
            )
        if not math.isfinite(self.mu) or not 0 <= self.sigma < math.inf:
            raise ValueError("partition mu and sigma must be finite, and sigma non-negative")


def _largest_remainder(raw: np.ndarray, total: int, floor: int) -> np.ndarray:
    # floor goes to everyone first; the spare mass is split proportionally,
    # fractional parts resolved largest-first (stable on ties)
    k = len(raw)
    spare = total - floor * k
    share = raw / raw.sum() * spare
    base = np.floor(share).astype(np.int64)
    remainder = share - base
    missing = spare - int(base.sum())
    order = np.argsort(-remainder, kind="stable")
    base[order[:missing]] += 1
    return base + floor


def generate_partition(spec: PartitionSpec) -> np.ndarray:
    """Lognormal client sizes (int64) scaled to sum exactly to the sample budget.

    Every client receives at least one sample; sizes come in draw order.
    """
    rng = np.random.default_rng(spec.seed)
    raw = rng.lognormal(spec.mu, spec.sigma, spec.clients)
    with np.errstate(over="ignore"):  # an overflowing total is refused below
        drawn = raw.sum()
    if not 0 < drawn < math.inf:
        raise ValueError(f"partition sizes at mu={spec.mu}, sigma={spec.sigma} sum to {drawn}")
    return _largest_remainder(raw, spec.total_samples, floor=1)


@dataclass
class Dataset:
    """Features (n, d) with labels (n,), or a stack of m batches of L rows
    for the models' stacked gradient: features (m, L, d), labels (m, L)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim not in (2, 3):
            raise ValueError("features must be a 2-D array or a 3-D stack")
        if self.labels.shape != self.features.shape[:-1]:
            raise ValueError("labels must align with feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[-1]

    def subset(self, idx) -> "Dataset":
        if isinstance(idx, np.ndarray) and idx.dtype.kind in "iu":  # take reads a mask as rows 0, 1
            return Dataset(self.features.take(idx, axis=0), self.labels.take(idx, axis=0))
        return Dataset(self.features[idx], self.labels[idx])


def _class_means(dim: int, classes: int, separation: float) -> np.ndarray:
    if classes > dim:
        raise ValueError("class means use one basis direction each; need classes <= dim")
    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = separation
    return means


def generate_blobs(
    n: int, dim: int, classes: int, seed, separation: float = 4.0
) -> Dataset:
    """Gaussian blobs with unit isotropic noise and equal class priors.

    Class c sits at separation * e_c, so any two means are separation*sqrt(2)
    apart; labels are drawn uniformly.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not math.isfinite(separation):
        raise ValueError("separation must be finite")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    means = _class_means(dim, classes, separation)
    features = means[labels] + rng.standard_normal((n, dim))
    return Dataset(features, labels)


def split_by_sizes(ds: Dataset, sizes, seed) -> tuple[Dataset, np.ndarray]:
    """Shuffle rows once; shard i is the next sizes[i] rows of the shuffled
    copy (engine.Clients checks that the sizes cover it).  Returns that copy
    and the sizes as int64."""
    return ds.subset(np.random.default_rng(seed).permutation(len(ds))), np.asarray(sizes, np.int64)


# ------------------------------------------------------------------- models


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _as_stack(model, w, batch: Dataset, dropout_rng):
    """(m, P) parameters, (m, L, d) features, (m, L) labels, None or m streams;
    a 2-D batch, with (P,) parameters and one stream, is the stack of one."""
    if batch.labels.size == 0:
        raise ValueError("batch must be non-empty")
    if batch.dim != model.dim:
        raise ValueError(f"batch dimension {batch.dim} != model dimension {model.dim}")
    if batch.features.ndim == 3:
        return w, batch.features, batch.labels, dropout_rng
    rngs = None if dropout_rng is None else (dropout_rng,)
    return w[None], batch.features[None], batch.labels[None], rngs


def _linear_grads(inputs: np.ndarray, delta: np.ndarray) -> list[np.ndarray]:
    """A stacked linear layer's weight and bias gradients from the gradient in its outputs."""
    return [inputs.swapaxes(1, 2) @ delta, delta.sum(axis=1)]


def _loss(model, w, batch: Dataset, dropout_rng=None) -> float:
    """Mean cross-entropy of one 2-D batch."""
    if batch.features.ndim == 3:
        raise ValueError("loss takes one 2-D batch, not a stack of batches")
    w, features, _, rngs = _as_stack(model, w, batch, dropout_rng)
    logp = _log_softmax(model._forward(w, features, rngs)[0][0])
    return float(-logp[np.arange(len(batch)), batch.labels].mean())


def _gradient(model, w, batch: Dataset, dropout_rng=None) -> np.ndarray:
    """Mean cross-entropy gradient: (m, P) for a stack, (P,) for one batch."""
    w_stack, features, labels, rngs = _as_stack(model, w, batch, dropout_rng)
    logits, backward = model._forward(w_stack, features, rngs)
    # scores: the gradient of each batch's mean cross-entropy in its logits
    m, n = labels.shape
    scores = _softmax(logits)
    scores.reshape(m * n, -1)[np.arange(m * n), labels.ravel()] -= 1.0
    scores /= n
    grad = np.concatenate([g.reshape(m, -1) for g in backward(scores)], axis=1)
    return grad if batch.features.ndim == 3 else grad[0]


def _predict(model, w, features: np.ndarray) -> np.ndarray:
    return model._forward(w[None], features[None], None)[0][0].argmax(axis=1)


@dataclass(frozen=True)
class SoftmaxRegression:
    """Linear classifier trained with cross-entropy."""

    dim: int
    classes: int

    @property
    def param_count(self) -> int:
        return self.dim * self.classes + self.classes

    def init_params(self, rng=None) -> np.ndarray:
        return np.zeros(self.param_count)

    def _forward(self, w, features, dropout_rngs):
        # w (m, P) and features (m, L, d) give logits (m, L, c)
        split = self.dim * self.classes
        weight = w[:, :split].reshape(len(w), self.dim, self.classes)
        return features @ weight + w[:, None, split:], lambda delta: _linear_grads(features, delta)

    # bound in each class, not inherited: the benchmark traces each class's own methods
    loss, gradient, predict = _loss, _gradient, _predict


@dataclass(frozen=True)
class OneHiddenMLP:
    """One hidden ReLU layer with classic dropout.

    Training mode multiplies hidden activations by a Bernoulli keep mask
    drawn from each stacked batch's stream; evaluation mode runs the
    deterministic network with activations scaled by the keep probability.
    A paired loss/gradient evaluation shares a mask by receiving equal-state
    streams.  At dropout_rate 0 the two modes are the same network and no
    mask is drawn, so the stream is not advanced.
    """

    dim: int
    hidden: int
    classes: int
    dropout_rate: float = 0.2

    def __post_init__(self) -> None:
        if self.hidden < 1:
            raise ValueError("hidden must be positive")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def param_count(self) -> int:
        return self.dim * self.hidden + self.hidden + self.hidden * self.classes + self.classes

    def init_params(self, rng=None) -> np.ndarray:
        if rng is None:
            raise ValueError("hidden-layer init needs a randomness stream")
        w1 = rng.standard_normal((self.dim, self.hidden)) * math.sqrt(2.0 / self.dim)
        w2 = rng.standard_normal((self.hidden, self.classes)) * math.sqrt(2.0 / self.hidden)
        return np.concatenate(
            [w1.ravel(), np.zeros(self.hidden), w2.ravel(), np.zeros(self.classes)]
        )

    def _forward(self, w, features, dropout_rngs):
        # stacked parameters (m, P) hold w1 (d, h), b1 (h,), w2 (h, c), b2 (c,)
        d, h, c, m = self.dim, self.hidden, self.classes, len(w)
        w1 = w[:, : d * h].reshape(m, d, h)
        w2 = w[:, d * h + h : d * h + h + h * c].reshape(m, h, c)
        pre = features @ w1 + w[:, None, d * h : d * h + h]
        hidden = np.maximum(pre, 0.0)
        # keep: each batch's mask in training mode, else the keep probability;
        # at rate 0 either would be 1, and x * 1.0 == x bit for bit, so none is applied
        keep = None
        if self.dropout_rate > 0:
            keep = 1.0 - self.dropout_rate
            if dropout_rngs is not None:
                draws = np.stack([rng.random(pre.shape[1:]) for rng in dropout_rngs])
                keep = draws >= self.dropout_rate
            hidden = hidden * keep

        def backward(scores):  # the logits' gradient to those of w1, b1, w2, b2
            grad_pre = scores @ w2.swapaxes(1, 2)
            if keep is not None:
                grad_pre = grad_pre * keep
            return _linear_grads(features, grad_pre * (pre > 0)) + _linear_grads(hidden, scores)

        return hidden @ w2 + w[:, None, d * h + h + h * c :], backward

    # bound in each class, not inherited: the benchmark traces each class's own methods
    loss, gradient, predict = _loss, _gradient, _predict


Model = Union[SoftmaxRegression, OneHiddenMLP]


def accuracy(model: Model, w, ds: Dataset) -> float:
    return float((model.predict(w, ds.features) == ds.labels).mean())


def _sum(terms) -> float:
    """Left to right from 0, as the builtin sum added floats before 3.12 compensated them."""
    return reduce(operator.add, terms, 0)


def objective_gap(model: Model, w, shards: Sequence[Dataset], declared, cap: int
                  ) -> tuple[float, float]:
    """Actual and bounded change of the weighted objective under capping.

    Compares the declared-weighted mean of client objectives against the
    capped-weighted one (lhs) and evaluates the computable bound (rhs):
    clients over the cap contribute their objective scaled by the weight
    mass they lose relative to uniform, clients at or below it contribute
    their total per-sample loss scaled by the normalizer shift.  With the
    cap at or above every declared count both sides are exactly zero.
    The counts are read through `exact_counts` and the cap through `exact_cap`.
    """
    declared_list = exact_counts(declared).tolist()
    if len(declared_list) != len(shards):
        raise SizeMismatch(f"{len(declared_list)} declared counts for {len(shards)} shards")
    cap = exact_cap(cap, least=1, name="cap (--u)")
    capped = [min(x, cap) for x in declared_list]
    declared_total, capped_total = sum(declared_list), sum(capped)  # both 0, or neither
    if declared_total == 0:
        raise ValueError("declared counts must carry positive total weight")
    # each client's mean loss in evaluation mode: no dropout stream
    objectives = [model.loss(w, shard) for shard in shards]
    declared_mean = _sum(d * f for d, f in zip(declared_list, objectives)) / declared_total
    capped_mean = _sum(c * f for c, f in zip(capped, objectives)) / capped_total
    lhs = abs(declared_mean - capped_mean)
    over = _sum((d / declared_total - 1.0 / len(shards)) * f
                for d, f in zip(declared_list, objectives) if d > cap)
    under_loss_total = _sum(len(shard) * f
                            for d, shard, f in zip(declared_list, shards, objectives) if d <= cap)
    rhs = abs(over + (1.0 / declared_total - 1.0 / capped_total) * under_loss_total)
    return lhs, rhs
