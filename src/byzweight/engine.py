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
trimmed mean rank client-major copies of it, a cache-sized block of columns
at a time, ties in client order.

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


def _training_rows(model, client: ClientSpec, cfg: TrainConfig, effective_size: int) -> Dataset:
    """The rows a client trains on in every round; none for a model-negation
    attacker.  Without honest_use_all_samples, a fixed subset of at most
    effective_size rows; under label shift, labels y become (classes-1)-y."""
    data = client.data
    if client.behavior is Behavior.MODEL_NEGATION:
        return Dataset(data.features[:0], data.labels[:0])
    if not cfg.honest_use_all_samples:
        keep = min(effective_size, len(data))
        if keep < len(data):
            rng = stream(cfg.master_seed, _TAG_SUBSET, client.id)
            idx = rng.permutation(len(data))[:keep]
            data = data.subset(np.sort(idx))
    if client.behavior is Behavior.LABEL_SHIFT:
        data = Dataset(data.features, (model.classes - 1) - data.labels)
    return data


def _row_pool(rows: Sequence[Dataset]) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Every client's training rows in one Dataset, with each client's first
    row in it and its row count."""
    count = np.array([len(data) for data in rows], dtype=np.int64)
    pool = Dataset(np.concatenate([data.features for data in rows]),
                   np.concatenate([data.labels for data in rows]))
    return pool, np.cumsum(count) - count, count


def client_update(
    model, w: np.ndarray, ids: np.ndarray, pool: Dataset, offset: np.ndarray,
    n: np.ndarray, cfg: TrainConfig, round_index: int, updates: np.ndarray,
) -> np.ndarray:
    """One round of local work, written into updates (len(ids), P): row i is
    client ids[i]'s update, which trains on the n[i] pool rows from offset[i].

    A client with no rows (a model-negation attacker) sends -w.  Every other
    client runs cfg.epochs passes of mini-batch SGD from w over its rows; a
    short final batch of r samples steps with its gradient scaled by
    r/batch_size, so every sample contributes 1/batch_size of its gradient
    once per epoch.

    The clients step in lockstep, and at each step the batches of equal
    length share stacked model.gradient calls.  No bit can change: each
    client keeps its own parameters, rows and streams, steps by the same
    float eta * (r / batch_size), and a stacked product computes each
    slice as a call on that slice alone.  Streams keyed on (round, client),
    drawn in the client's batch order: shuffle, one permutation per epoch,
    for more than one row; dropout, one mask per batch, if dropout_rate > 0.
    """
    updates[:] = w
    updates[n == 0] = -w
    if not n.any():
        return updates
    b = cfg.batch_size
    b = np.maximum(1, np.ceil(b * n)).astype(int) if isinstance(b, float) else np.full(n.size, b)
    many = n > 1
    shuffles = zip(streams(cfg.master_seed, _TAG_SHUFFLE, round_index, ids[many]), n[many].tolist())
    perms = [[rng.permutation(k) for _ in range(cfg.epochs)] for rng, k in shuffles]
    drops = getattr(model, "dropout_rate", 0) > 0
    dropout = drops and [stream(cfg.master_seed, _TAG_DROPOUT, round_index, i) if k else None
                         for k, i in zip(n.tolist(), ids.tolist())]
    # the schedule: each batch as (client, start, length), sorted by (step, length, client);
    # start counts rows in the round's order, client by client
    steps = -(-n // b)
    lane = np.repeat(np.arange(n.size), steps)
    step = np.arange(lane.size) - np.repeat(np.cumsum(steps) - steps, steps)
    length = np.minimum(b[lane], n[lane] - step * b[lane])
    order = np.lexsort((lane, length, step))
    lane, step, length = lane[order], step[order], length[order]
    start, scale = (np.cumsum(n) - n)[lane] + step * b[lane], cfg.eta * (length / b[lane])
    cuts = (np.flatnonzero((np.diff(step) != 0) | (np.diff(length) != 0)) + 1).tolist()
    stacks = []  # (first, end, batch length) in the sorted schedule
    for lo, hi in zip([0, *cuts], [*cuts, lane.size]):
        per = max(1, _STACK_ROWS // int(length[lo]))
        stacks += [(k, min(k + per, hi), int(length[lo])) for k in range(lo, hi, per)]
    for epoch in range(cfg.epochs):
        index = np.repeat(offset, n)  # the round's rows in the pool; a one-row client stays put
        if perms:
            index[np.repeat(many, n)] += np.concatenate([p[epoch] for p in perms])
        for lo, hi, size in stacks:
            # one client's parameters are a view; several are gathered once and scattered back
            who = slice(lane[lo], lane[lo] + 1) if hi - lo == 1 else lane[lo:hi]
            params = updates[who]
            rngs = [dropout[i] for i in lane[lo:hi]] if drops else None
            rows = pool.subset(index[start[lo:hi, None] + np.arange(size)])
            grad = model.gradient(params, rows, rngs)
            grad *= scale[lo:hi, None]  # f * g == g * f bit for bit
            params -= grad
            if hi - lo > 1:
                updates[who] = params
    return updates


def _as_arrays(updates, weights: Sequence[float]):
    # updates: the round's (n, P) matrix, read as it is, or n parameter vectors
    u = np.asarray(updates, dtype=float)
    if u.ndim != 2 or len(u) == 0 or len(u) != len(weights):
        raise ValueError("need equally many updates and weights, at least one")
    try:
        wt = np.asarray(weights, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("weights must be finite and non-negative") from None
    with np.errstate(all="ignore"):
        total = wt.sum()
    if not (np.isfinite(total) and (wt >= 0).all()):  # a finite total has finite terms
        raise ValueError("weights must be finite and non-negative")
    if total <= 0:
        raise WeightSumZero("total aggregation weight is zero")
    return u, wt, total


def _blocks(u: np.ndarray):
    """u's columns in blocks of about 2^15 values: each block's columns, and
    its client-major (columns, K) copy, small enough to stay in cache."""
    width = max(1, 2**15 // len(u))
    for first in range(0, u.shape[1], width):
        cols = slice(first, first + width)
        yield cols, np.ascontiguousarray(u[:, cols].T)


def _client_order(ut: np.ndarray, order: np.ndarray) -> np.ndarray:
    """numpy's faster default argsort of each row of a client-major block,
    repaired in place into argsort(kind="stable"): the clients ranked by
    ascending value, ties in client order.  Rows where neighbours tie
    (-0.0 == 0.0; NaNs sort last, as one run) are sorted again on
    (run << bits) | client.
    """
    ranked = np.sort(ut, axis=1)
    same = (ranked[:, 1:] == ranked[:, :-1]) | np.isnan(ranked[:, :-1])
    rows = np.flatnonzero(same.any(axis=1))
    if rows.size:
        bits = (ut.shape[1] - 1).bit_length()
        key = ranked.view(np.int64)[: rows.size]  # reuse ranked's buffer
        key[:, 0] = 0
        np.cumsum(~same[rows], axis=1, out=key[:, 1:])  # each rank's run
        key <<= bits
        key |= order[rows]
        key.sort(axis=1)
        order[rows] = np.bitwise_and(key, (1 << bits) - 1, out=key)
    return order


def _lower_median(ut: np.ndarray, order: np.ndarray, wt: np.ndarray, total: float) -> np.ndarray:
    cum = wt[order]
    np.cumsum(cum, axis=1, out=cum)  # sequential, so row-wise changes no bit
    rows = np.arange(len(ut))
    return ut[rows, order[rows, (cum >= total / 2).argmax(axis=1)]]


def aggregate_weighted_mean(updates, weights: Sequence[float]) -> np.ndarray:
    u, wt, total = _as_arrays(updates, weights)
    return (wt[:, None] * u).sum(axis=0) / total


def aggregate_weighted_median(updates, weights: Sequence[float]) -> np.ndarray:
    """Coordinatewise weighted lower median.

    Per coordinate: the smallest value whose cumulative weight, over values
    sorted ascending with ties in client order, reaches half the total.
    With whole-number weights summing below 2^53 every partial sum is exact,
    so numpy's unstable order crosses half the total in the same run of
    equal values as the stable one.  Only a run's 0.0, -0.0 and NaN members
    differ in bits, so only rows whose pick is one of them are repaired.
    """
    u, wt, total = _as_arrays(updates, weights)
    exact = total < 2**53 and not (wt % 1).any()
    out = np.empty(u.shape[1])
    for cols, ut in _blocks(u):
        order = np.argsort(ut, axis=1)
        pick = _lower_median(ut, order if exact else _client_order(ut, order), wt, total)
        if exact and (redo := np.flatnonzero((pick == 0) | np.isnan(pick))).size:
            pick[redo] = _lower_median(ut[redo], _client_order(ut[redo], order[redo]), wt, total)
        out[cols] = pick
    return out


def aggregate_trimmed_mean(updates, weights: Sequence[float], beta: float) -> np.ndarray:
    """Coordinatewise mean after trimming beta of the weight mass per tail.

    A client straddling a trim boundary keeps only the fraction of its
    weight inside the surviving band, so the trimmed mass is exactly
    beta * total on each side.  Ranked as in aggregate_weighted_median, with
    every row in the stable order: the band splits a run's weight by rank.
    """
    TrimmedMean(beta)  # refuses beta outside [0, 1/2)
    u, wt, total = _as_arrays(updates, weights)
    lo, hi = beta * total, (1 - beta) * total
    terms = np.empty(u.shape)  # (K, P), summed once down axis 0 one client at a time, not pairwise
    for cols, ut in _blocks(u):
        order = _client_order(ut, np.argsort(ut, axis=1))
        lower = wt[order]  # each client's weight, turned in place into where its band starts
        cum = np.cumsum(lower, axis=1)
        np.maximum(np.subtract(cum, lower, out=lower), lo, out=lower)
        upper = np.minimum(cum, hi, out=cum)
        surviving = np.clip(np.subtract(upper, lower, out=upper), 0.0, None, out=upper)
        np.multiply(surviving.T, np.take_along_axis(ut, order, axis=1).T, out=terms[:, cols])
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

    Declared sizes are preprocessed, and every client's training rows pooled,
    once before any round runs.  Each round, client_update writes the
    selected clients' updates into the run's one (m, P) matrix in ascending
    client id, which the aggregator reads.  If aggregation ever produces a
    non-finite parameter, the run stops with a final record flagged non-finite.
    """
    clients = sorted(clients, key=lambda c: c.id)
    ids = [c.id for c in clients]
    if ids != list(range(len(clients))):
        raise ValueError("client ids must be distinct and 0..K-1")
    declared = WeightVector.from_values([c.declared_size for c in clients], ids)
    weight_of = preprocess(declared, cfg.preprocess).by_id()

    pool, offset, n = _row_pool([_training_rows(model, c, cfg, weight_of[c.id]) for c in clients])
    w = model.init_params(stream(cfg.master_seed, _TAG_INIT))
    updates = np.empty((participants_per_round(cfg.clients_per_round, len(clients)), len(w)))
    metrics: list[RoundMetrics] = []
    for t in range(1, cfg.rounds + 1):
        at = np.array(select_clients(t, len(clients), cfg.clients_per_round, cfg.master_seed))
        client_update(model, w, at, pool, offset[at], n[at], cfg, t, updates)
        w = aggregate(cfg.aggregator, updates, [weight_of[cid] for cid in at.tolist()])
        norm = float(np.linalg.norm(w))
        if not np.all(np.isfinite(w)):
            metrics.append(RoundMetrics(t, math.nan, math.nan, norm, finite=False))
            break
        metrics.append(RoundMetrics(t, accuracy(model, w, testset), model.loss(w, testset), norm))
    return w, metrics
