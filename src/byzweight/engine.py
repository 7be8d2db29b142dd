"""Deterministic federated training with unreliable clients.

The server runs rounds of select / update / aggregate.  Every client ships a
declared sample count up front; the weight preprocessor runs once on those
declarations, and the resulting weights are what the aggregation rule sees.
Attackers either negate the server model each round or train on flipped
labels.  All randomness is drawn from streams keyed on
(master_seed, purpose, round, client), so results are bit-identical no matter
how client work is scheduled.

A round's clients train in lockstep (client_update), which changes no bit,
and their updates form one matrix in ascending client id.  The median and
trimmed mean rank a client-major copy of it, ties in client order.

A stream is built only where something is drawn from it: the init stream
once per run; the select stream in a round where only some clients take
part; the subset stream once per run for each client that trains on fewer
rows than it holds (keyed on the client alone); and per (round, training
client) the shuffle stream when it trains on more than one row, and the
dropout stream when the model has a positive dropout_rate.  Each purpose has
its own tag, so a stream left unbuilt changes no other draw.  A round's
shuffle streams are seeded in one batch (streams), drawing the same numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .tasks import Dataset, accuracy
from .weights import PreprocessMode, WeightVector, preprocess


class EmptyClientData(ValueError):
    pass


class WeightSumZero(ValueError):
    pass


class AllMassTrimmed(ValueError):
    pass


# stream purposes; never reuse a tag for a second purpose
_TAG_INIT = 1
_TAG_SELECT = 2
_TAG_SHUFFLE = 3
_TAG_DROPOUT = 4
_TAG_SUBSET = 5

_STACK_ROWS = 256  # rows per stacked gradient call; larger stacks fall out of cache


def stream(*keys: int) -> np.random.Generator:
    """A fresh generator keyed on a tuple of integers."""
    return np.random.default_rng(tuple(int(k) for k in keys))


def streams(*parts) -> Iterator[np.random.Generator]:
    """stream(*key) for each key of the broadcast parts: streams(s, t, ids) is
    stream(s, t, i) for i in ids.  All keys are seeded in one pass (numpy's
    SeedSequence hash in uint32 arrays, PCG64's seeding in 128-bit ints), and
    each is the one reused Generator reset: draw from it before the next."""
    mask32, mask128, pcg_mult = (1 << 32) - 1, (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
    words = []  # the entropy: each part's k-th little-endian uint32 word, or -1
    for col in np.broadcast_arrays(*map(np.atleast_1d, parts)):
        if (col < 0).any():
            raise ValueError("expected non-negative integer")
        words.append((col & mask32).astype(np.int64))
        while ((col := col >> 32) > 0).any():
            words.append(np.where(col > 0, (col & mask32).astype(np.int64), -1))
    ent = np.stack(words, axis=1)  # each key's words to the front; zeros pad it to the pool
    ent = np.take_along_axis(ent, np.argsort(ent < 0, axis=1, kind="stable"), axis=1)
    count = np.maximum((ent >= 0).sum(axis=1), 4)  # pool words mix in every key
    ent = np.pad(np.maximum(ent, 0).astype(np.uint32), ((0, 0), (0, max(0, 4 - ent.shape[1]))))
    c = [0x43B0D7E5, 0x931E8875]  # the running hash constant and its multiplier

    def hash_(v):
        c[0], v = c[0] * c[1] & mask32, v ^ np.uint32(c[0])  # xor, advance, multiply
        v = v * np.uint32(c[0])
        return v ^ v >> np.uint32(16)

    pool = [hash_(ent[:, i]) for i in range(4)]
    # mix the pool words into each other, then any words past the pool into each
    for src, dst in [(s, d) for s in range(ent.shape[1]) for d in range(4) if s != d]:
        r = hash_(pool[src] if src < 4 else ent[:, src]) * np.uint32(0x4973F715)
        r = pool[dst] * np.uint32(0xCA01F9DD) - r
        pool[dst] = np.where(src < count, r ^ r >> np.uint32(16), pool[dst])
    c[:] = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64) hashes with its own constants
    out = [hash_(pool[i % 4]).astype(np.uint64) for i in range(8)]
    v0, v1, v2, v3 = ((out[j] | out[j + 1] << np.uint64(32)).tolist() for j in (0, 2, 4, 6))
    gen = np.random.Generator(bits := np.random.PCG64(0))
    for s0, s1, i0, i1 in zip(v0, v1, v2, v3):  # PCG64 seeds from (v0:v1, v2:v3)
        inc = ((i0 << 64 | i1) << 1 | 1) & mask128
        state = ((s0 << 64 | s1) + inc) * pcg_mult + inc & mask128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield gen


class Behavior(enum.Enum):
    HONEST = "honest"
    MODEL_NEGATION = "model_negation"
    LABEL_SHIFT = "label_shift"


@dataclass
class ClientSpec:
    """One participant: its real data, its claimed size, and how it acts."""

    id: int
    data: Dataset
    declared_size: int
    behavior: Behavior = Behavior.HONEST

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise EmptyClientData(f"client {self.id} holds no samples")
        if self.declared_size < 1:
            raise ValueError("declared_size must be a positive integer")
        # honest clients report their true size; only attackers may lie
        if self.behavior is Behavior.HONEST and self.declared_size != len(self.data):
            raise ValueError(
                f"honest client {self.id} declares {self.declared_size} "
                f"but holds {len(self.data)}"
            )


@dataclass(frozen=True)
class WeightedMean:
    pass


@dataclass(frozen=True)
class WeightedMedian:
    pass


@dataclass(frozen=True)
class TrimmedMean:
    beta: float

    def __post_init__(self) -> None:
        if self.beta >= 0.5:
            raise AllMassTrimmed(f"beta={self.beta} leaves no surviving weight mass")
        if not self.beta >= 0:
            raise ValueError(f"beta must lie in [0, 1/2), got {self.beta}")


Aggregator = Union[WeightedMean, WeightedMedian, TrimmedMean]


@dataclass
class TrainConfig:
    """Server-side knobs; batch_size is an absolute count, or a fraction of
    each client's usable samples when given as a float in (0, 1]."""

    rounds: int
    eta: float
    epochs: int
    batch_size: Union[int, float]
    preprocess: PreprocessMode
    aggregator: Aggregator
    clients_per_round: Optional[Union[int, float]] = None
    honest_use_all_samples: bool = True
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if isinstance(self.batch_size, float):
            if not 0 < self.batch_size <= 1:
                raise ValueError("fractional batch_size must lie in (0, 1]")
        elif self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    test_accuracy: float
    test_loss: float
    aggregate_norm: float
    finite: bool = True


METRICS_CSV_HEADER = "round,test_accuracy,test_loss,aggregate_norm"


def metrics_to_csv(records: Sequence[RoundMetrics]) -> str:
    lines = [METRICS_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.round},{r.test_accuracy!r},{r.test_loss!r},{r.aggregate_norm!r}"
        )
    return "\n".join(lines) + "\n"


def _training_rows(model, client: ClientSpec, cfg: TrainConfig, effective_size: int):
    """The rows a client trains on in every round; None for a model-negation
    attacker.  Without honest_use_all_samples, a fixed subset of at most
    effective_size rows; under label shift, labels y become (classes-1)-y."""
    if client.behavior is Behavior.MODEL_NEGATION:
        return None
    data = client.data
    if not cfg.honest_use_all_samples:
        keep = min(effective_size, len(data))
        if keep < len(data):
            rng = stream(cfg.master_seed, _TAG_SUBSET, client.id)
            idx = rng.permutation(len(data))[:keep]
            data = data.subset(np.sort(idx))
    if client.behavior is Behavior.LABEL_SHIFT:
        data = Dataset(data.features, (model.classes - 1) - data.labels)
    return data


def client_update(
    model, w: np.ndarray, clients: Sequence[ClientSpec], rows: Sequence[Optional[Dataset]],
    cfg: TrainConfig, round_index: int,
) -> np.ndarray:
    """One round of local work; row i of the result is client i's update.

    A model-negation attacker's row is -w.  Every other client runs
    cfg.epochs passes of mini-batch SGD from w over rows[i]; a short final
    batch of r samples steps with its gradient scaled by r/batch_size, so
    every sample contributes 1/batch_size of its gradient once per epoch.

    The clients step in lockstep, and at each step the batches of equal
    length share stacked model.gradient calls.  No bit can change: each
    client keeps its own parameters, rows and streams, steps by the same
    float eta * (r / batch_size), and a stacked product computes each
    slice as a call on that slice alone.  Streams keyed on (round, client),
    drawn in the client's batch order: shuffle, one permutation per epoch,
    for more than one row; dropout, one mask per batch, if dropout_rate > 0.
    """
    updates = np.tile(w, (len(clients), 1))
    updates[[i for i, data in enumerate(rows) if data is None]] = -w
    if all(data is None for data in rows):
        return updates
    # client i's rows sit at offset[i] in the round's pool; an attacker has none
    n = np.array([0 if data is None else len(data.labels) for data in rows], dtype=np.int64)
    b = cfg.batch_size
    b = np.maximum(1, np.ceil(b * n)).astype(int) if isinstance(b, float) else np.full(n.size, b)
    offset = np.cumsum(n) - n
    pool = Dataset(np.concatenate([data.features for data in rows if data is not None]),
                   np.concatenate([data.labels for data in rows if data is not None]))
    ids, many = np.array([client.id for client in clients], dtype=np.int64), n > 1
    shuffles = zip(streams(cfg.master_seed, _TAG_SHUFFLE, round_index, ids[many]), n[many].tolist())
    perms = [[rng.permutation(k) for _ in range(cfg.epochs)] for rng, k in shuffles]
    drops = getattr(model, "dropout_rate", 0) > 0
    dropout = [stream(cfg.master_seed, _TAG_DROPOUT, round_index, i) if drops and data is not None
               else None for data, i in zip(rows, ids)]
    # the schedule: each batch as (client, start, length), sorted by (step, length, client)
    steps = -(-n // b)
    lane = np.repeat(np.arange(n.size), steps)
    step = np.arange(lane.size) - np.repeat(np.cumsum(steps) - steps, steps)
    length = np.minimum(b[lane], n[lane] - step * b[lane])
    order = np.lexsort((lane, length, step))
    lane, step, length = lane[order], step[order], length[order]
    start, scale = offset[lane] + step * b[lane], cfg.eta * (length / b[lane])
    cuts = (np.flatnonzero((np.diff(step) != 0) | (np.diff(length) != 0)) + 1).tolist()
    stacks = []  # (first, end, batch length) in the sorted schedule
    for lo, hi in zip([0, *cuts], [*cuts, lane.size]):
        per = max(1, _STACK_ROWS // int(length[lo]))
        stacks += [(k, min(k + per, hi), int(length[lo])) for k in range(lo, hi, per)]
    for epoch in range(cfg.epochs):
        index = np.repeat(offset, n)  # one gather per epoch; a one-row client stays put
        if perms:
            index[np.repeat(many, n)] += np.concatenate([p[epoch] for p in perms])
        data = pool.subset(index)
        for lo, hi, size in stacks:
            if hi - lo == 1:  # one client: its rows and parameters are slices
                at, who = (None, slice(start[lo], start[lo] + size)), slice(lane[lo], lane[lo] + 1)
            else:  # rows by index arithmetic
                at, who = start[lo:hi, None] + np.arange(size), lane[lo:hi]
            rngs = [dropout[i] for i in lane[lo:hi]] if drops else None
            grad = model.gradient(updates[who], Dataset(data.features[at], data.labels[at]), rngs)
            grad *= scale[lo:hi, None]  # f * g == g * f bit for bit
            updates[who] -= grad
    return updates


def _as_arrays(updates, weights: Sequence[float]):
    # updates: the round's (n, P) matrix, read as it is, or n parameter vectors
    u = np.asarray(updates, dtype=float)
    if u.ndim != 2 or len(u) == 0 or len(u) != len(weights):
        raise ValueError("need equally many updates and weights, at least one")
    wt = np.asarray(weights, dtype=float)
    if not (np.isfinite(wt).all() and (wt >= 0).all()):
        raise ValueError("weights must be finite and non-negative")
    total = wt.sum()
    if total <= 0:
        raise WeightSumZero("total aggregation weight is zero")
    return u, wt, total


def _client_order(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The client-major (P, K) copy of u, and per row the clients ranked by
    ascending value, ties in client order: argsort(kind="stable"), through
    numpy's faster default sort.  Rows where neighbours tie (-0.0 == 0.0;
    NaNs sort last, as one run) are sorted again on (run << bits) | client.
    """
    ut = np.ascontiguousarray(u.T)
    order, ranked = np.argsort(ut, axis=1), np.sort(ut, axis=1)
    same = (ranked[:, 1:] == ranked[:, :-1]) | np.isnan(ranked[:, :-1])
    rows = np.flatnonzero(same.any(axis=1))
    if rows.size:
        bits = (len(u) - 1).bit_length()
        key = ranked.view(np.int64)[: rows.size]  # reuse ranked's buffer: fresh pages fault
        key[:, 0] = 0
        np.cumsum(~same[rows], axis=1, out=key[:, 1:])  # each rank's run
        key <<= bits
        key |= order[rows]
        key.sort(axis=1)
        order[rows] = np.bitwise_and(key, (1 << bits) - 1, out=key)
    return ut, order


def aggregate_weighted_mean(updates, weights: Sequence[float]) -> np.ndarray:
    u, wt, total = _as_arrays(updates, weights)
    return (wt[:, None] * u).sum(axis=0) / total


def aggregate_weighted_median(updates, weights: Sequence[float]) -> np.ndarray:
    """Coordinatewise weighted lower median.

    Per coordinate: the smallest value whose cumulative weight, over values
    sorted ascending with ties in client order, reaches half the total.
    """
    u, wt, total = _as_arrays(updates, weights)
    ut, order = _client_order(u)
    cum = wt[order]
    np.cumsum(cum, axis=1, out=cum)  # sequential, so row-wise changes no bit
    rows = np.arange(len(ut))
    return ut[rows, order[rows, (cum >= total / 2).argmax(axis=1)]]


def aggregate_trimmed_mean(updates, weights: Sequence[float], beta: float) -> np.ndarray:
    """Coordinatewise mean after trimming beta of the weight mass per tail.

    A client straddling a trim boundary keeps only the fraction of its
    weight inside the surviving band, so the trimmed mass is exactly
    beta * total on each side.  Ranked as in aggregate_weighted_median.
    """
    TrimmedMean(beta)  # refuses beta outside [0, 1/2)
    u, wt, total = _as_arrays(updates, weights)
    ut, order = _client_order(u)
    ranked = np.take_along_axis(ut, order, axis=1)
    lower = wt[order]  # each client's weight, turned in place into where its band starts
    cum = np.cumsum(lower, axis=1)
    lo, hi = beta * total, (1 - beta) * total
    np.maximum(np.subtract(cum, lower, out=lower), lo, out=lower)
    upper = np.minimum(cum, hi, out=cum)
    surviving = np.clip(np.subtract(upper, lower, out=upper), 0.0, None, out=upper)
    # (K, P) in lower's buffer: summed down axis 0 one client at a time, not pairwise
    terms = np.multiply(surviving.T, ranked.T, out=lower.reshape(u.shape))
    return terms.sum(axis=0) / (total - 2 * beta * total)


def aggregate(kind: Aggregator, updates, weights: Sequence[float]) -> np.ndarray:
    if isinstance(kind, WeightedMean):
        return aggregate_weighted_mean(updates, weights)
    if isinstance(kind, WeightedMedian):
        return aggregate_weighted_median(updates, weights)
    if isinstance(kind, TrimmedMean):
        return aggregate_trimmed_mean(updates, weights, kind.beta)
    raise TypeError(f"unknown aggregator {kind!r}")


def participants_per_round(
    clients_per_round: Optional[Union[int, float]], population: int
) -> int:
    """How many clients take part in each round.

    None means everyone; an int is a count in [1, population]; a float in
    (0, 1] is a fraction of the population, rounded up.
    """
    if clients_per_round is None:
        return population
    m = clients_per_round
    if isinstance(m, float):
        # also keeps NaN and infinities away from ceil
        if not 0 < m <= 1:
            raise ValueError(f"fractional clients_per_round {m} outside (0, 1]")
        m = math.ceil(m * population)
    if not 1 <= m <= population:
        raise ValueError(f"clients_per_round {m} outside [1, {population}]")
    return m


def select_clients(
    round_index: int,
    population: int,
    clients_per_round: Optional[Union[int, float]],
    master_seed: int,
) -> tuple[int, ...]:
    """Ids participating this round, ascending; uniform without replacement."""
    m = participants_per_round(clients_per_round, population)
    if m == population:
        return tuple(range(population))
    rng = stream(master_seed, _TAG_SELECT, round_index)
    return tuple(sorted(rng.choice(population, size=m, replace=False).tolist()))


def run_training(
    model,
    clients: Sequence[ClientSpec],
    testset: Dataset,
    cfg: TrainConfig,
) -> tuple[np.ndarray, list[RoundMetrics]]:
    """The full training loop; returns final parameters and per-round metrics.

    Declared sizes are preprocessed, and each client's training rows built,
    once before any round runs.  Within a round, client_update writes the
    selected clients' updates into one matrix in ascending client id, which
    the aggregator reads.  If aggregation ever produces a non-finite
    parameter, the run stops with a final record flagged non-finite.
    """
    clients = sorted(clients, key=lambda c: c.id)
    ids = [c.id for c in clients]
    if ids != list(range(len(clients))):
        raise ValueError("client ids must be distinct and 0..K-1")
    declared = WeightVector.from_values([c.declared_size for c in clients], ids)
    weight_of = preprocess(declared, cfg.preprocess).by_id()

    rows = [_training_rows(model, c, cfg, weight_of[c.id]) for c in clients]
    w = model.init_params(stream(cfg.master_seed, _TAG_INIT))
    metrics: list[RoundMetrics] = []
    for t in range(1, cfg.rounds + 1):
        selected = select_clients(t, len(clients), cfg.clients_per_round, cfg.master_seed)
        chosen = [clients[cid] for cid in selected]
        updates = client_update(model, w, chosen, [rows[cid] for cid in selected], cfg, t)
        weights = [weight_of[cid] for cid in selected]
        w = aggregate(cfg.aggregator, updates, weights)
        norm = float(np.linalg.norm(w))
        if not np.all(np.isfinite(w)):
            metrics.append(RoundMetrics(t, math.nan, math.nan, norm, finite=False))
            break
        metrics.append(RoundMetrics(t, accuracy(model, w, testset), model.loss(w, testset), norm))
    return w, metrics
