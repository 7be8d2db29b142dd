"""Deterministic federated training with unreliable clients.

The server runs rounds of select / update / aggregate.  Every client ships a
declared sample count up front; the preprocessor maps the declarations to one
weight per client, once, and those weights are what the aggregation rule sees.
Attackers either negate the server model each round or train on flipped
labels.  All randomness is drawn from streams keyed on
(master_seed, purpose, round, client), so results are bit-identical no matter
how client work is scheduled.

run_training trains runs that differ only in preprocess mode and aggregator
in lockstep: a round's selection, shuffles and batch schedule (round_plan)
are built once, and each distinct model trains once (client_update, whose
clients step in lockstep too, which changes no bit) into one matrix in
ascending client id.  The median and trimmed mean rank client-major copies
of it, a cache-sized block of columns at a time, ties in client order
(_rank): one int64 sort of keys that pack a value's high bits above its
client id, and a stable argsort of the few rows that come out of order.
The ranking reads no weight, so runs of one aggregator kind share it.

A stream is built only where something is drawn from it: the init stream
once per row group; the select stream in a round where only some clients
take part; the subset stream once per row group for each client that trains
on fewer rows than it holds (keyed on the client alone); and per (round,
training client) the shuffle stream when it trains on more than one row,
and per distinct model the dropout stream when dropout_rate > 0.  Each
purpose has its own tag, so a stream left unbuilt changes no other draw.
A round's shuffle streams are seeded in one batch (streams), drawing the
same numbers.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .tasks import Dataset, accuracy
from .weights import PreprocessInfeasible, PreprocessMode, preprocess


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
_INT64_MAX = np.iinfo(np.int64).max
# round_plan's stream key, clients, row counts, stacked calls (clients, lanes, scales), and
# each epoch's rows of each call
RoundPlan = namedtuple("RoundPlan", "seed round ids n stacks windows")


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


def round_plan(ids: np.ndarray, offset: np.ndarray, n: np.ndarray, cfg: TrainConfig,
               round_index: int) -> RoundPlan:
    """What a round's local work reads besides the model, where client ids[i]
    trains on the n[i] pool rows from offset[i]: one shuffle per epoch for
    each client of more than one row, and the batches sorted by (step,
    length, client), equal steps and lengths stacked up to _STACK_ROWS rows."""
    b = cfg.batch_size
    b = np.maximum(1, np.ceil(b * n)).astype(int) if isinstance(b, float) else np.full(n.size, b)
    many = n > 1
    shuffles = zip(streams(cfg.master_seed, _TAG_SHUFFLE, round_index, ids[many]), n[many].tolist())
    perms = [[rng.permutation(k) for _ in range(cfg.epochs)] for rng, k in shuffles]
    # the schedule: each batch as (client, start, length), sorted by (step, length, client);
    # start counts rows in the round's order, client by client
    steps = -(-n // b)
    lane = np.repeat(np.arange(n.size), steps)
    step = np.arange(lane.size) - np.repeat(np.cumsum(steps) - steps, steps)
    length = np.minimum(b[lane], n[lane] - step * b[lane])
    order = np.lexsort((lane, length, step))
    lane, step, length = lane[order], step[order], length[order]
    start, scale = (np.cumsum(n) - n)[lane] + step * b[lane], cfg.eta * (length / b[lane])
    firsts = np.flatnonzero((np.diff(step, prepend=-1) != 0) | (np.diff(length, prepend=-1) != 0))
    bounds = []  # (first, end, batch length) in the sorted schedule
    for lo, hi in zip(firsts.tolist(), [*firsts[1:].tolist(), lane.size]):
        per = max(1, _STACK_ROWS // int(length[lo]))
        bounds += [(k, min(k + per, hi), int(length[lo])) for k in range(lo, hi, per)]
    stacks = [(slice(lane[lo], lane[lo] + 1) if hi - lo == 1 else lane[lo:hi], lane[lo:hi],
               scale[lo:hi, None]) for lo, hi, _ in bounds]
    windows = []
    for epoch in range(cfg.epochs):
        index = np.repeat(offset, n)  # the round's rows in the pool; a one-row client stays put
        if perms:
            index[np.repeat(many, n)] += np.concatenate([p[epoch] for p in perms])
        windows.append([index[start[lo:hi, None] + np.arange(size)] for lo, hi, size in bounds])
    return RoundPlan(cfg.master_seed, round_index, ids, n, stacks, windows)


def client_update(model, w: np.ndarray, plan: RoundPlan, pool: Dataset,
                  updates: np.ndarray) -> np.ndarray:
    """One round of local work from w, written into updates (len(plan.ids),
    P): row i is client plan.ids[i]'s update, on its pool rows in plan's order.

    A client with no rows (a model-negation attacker) sends -w.  Every other
    client runs epochs passes of mini-batch SGD from w over its rows; a
    short final batch of r samples steps with its gradient scaled by
    r/batch_size, so every sample contributes 1/batch_size of its gradient
    once per epoch.

    Batches of equal length share stacked model.gradient calls, which
    changes no bit: each client keeps its own parameters, rows and streams,
    steps by the same float eta * (r / batch_size), and a stacked product
    computes each slice as a call on that slice alone.  Dropout masks come
    from streams keyed on (round, client), built anew in each call.
    """
    updates[:] = w
    updates[plan.n == 0] = -w
    drops = getattr(model, "dropout_rate", 0) > 0
    dropout = drops and [stream(plan.seed, _TAG_DROPOUT, plan.round, i) if k else None
                         for k, i in zip(plan.n.tolist(), plan.ids.tolist())]
    for windows in plan.windows:
        for (who, lanes, scale), window in zip(plan.stacks, windows):
            # one client's parameters are a view; several are gathered once and scattered back
            params = updates[who]
            rngs = [dropout[i] for i in lanes] if drops else None
            grad = model.gradient(params, pool.subset(window), rngs)
            grad *= scale  # f * g == g * f bit for bit
            params -= grad
            if not isinstance(who, slice):
                updates[who] = params
    return updates


def _as_arrays(updates, weights):
    # the round's (n, P) matrix, read as it is, or n vectors; n weights or a (C, n) stack
    u = np.asarray(updates, dtype=float)
    try:
        wt = np.asarray(weights, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("weights must be finite and non-negative") from None
    if u.ndim != 2 or len(u) == 0 or wt.ndim not in (1, 2) or wt.shape[-1] != len(u):
        raise ValueError("need equally many updates and weights, at least one")
    rows = np.atleast_2d(wt)
    with np.errstate(all="ignore"):
        total = rows.sum(axis=1)
    if not (np.isfinite(total).all() and (rows >= 0).all()):  # a finite total has finite terms
        raise ValueError("weights must be finite and non-negative")
    if (total <= 0).any():
        raise WeightSumZero("total aggregation weight is zero")
    return u, rows, total, wt.ndim == 1


def _ranked_blocks(u: np.ndarray, kept=None):
    """u's columns in blocks of about 2^15 values: each block's columns, and
    the order and values _rank gives for its client-major (columns, K) copy,
    which is small enough to stay in cache; given kept, the orders of an
    earlier pass, each block's values are read in its kept order instead."""
    width = max(1, 2**15 // len(u))
    for i, first in enumerate(range(0, u.shape[1], width)):
        cols = slice(first, first + width)
        ut = np.ascontiguousarray(u[:, cols].T)
        yield cols, *(_rank(ut) if kept is None else (
            kept[i], np.take(ut.reshape(-1), kept[i] + np.arange(0, ut.size, len(u))[:, None])))


def _rank(ut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a client-major block in argsort(kind="stable") order, and
    the values in that order: clients by ascending value, ties in client
    order (-0.0 == 0.0; NaNs of either sign last, as one run).

    One in-place int64 sort ranks every row.  A key packs the value's high
    bits above the client id, so equal values come out in client order.
    Distinct values that differ only in the id's bits can come out of
    order; only rows whose values then descend are ranked again, by the
    stable argsort itself.
    """
    k = ut.shape[1]
    bits = (k - 1).bit_length()
    key = (ut + 0.0).view(np.int64)  # -0.0 + 0.0 is 0.0
    sign = key >> 63
    sign &= _INT64_MAX
    key ^= sign  # a negative float's low 63 bits flipped: the ints order as the floats do
    np.copyto(key, _INT64_MAX, where=np.isnan(ut))  # above +inf's key for any k up to 2^51
    key &= -1 << bits
    key |= np.arange(k)
    key.sort(axis=1)
    order = np.bitwise_and(key, (1 << bits) - 1, out=key)
    flat = np.add(order, np.arange(0, ut.size, k)[:, None], out=sign)  # each rank's index in ut
    values = np.take(ut.reshape(-1), flat)
    bad = values[:, 1:] < values[:, :-1]  # NaNs are last already
    if bad.any():
        rows = np.unique(np.flatnonzero(bad) // (k - 1))
        order[rows] = np.argsort(ut[rows], axis=1, kind="stable")
        values[rows] = np.take_along_axis(ut[rows], order[rows], axis=1)
    return order, values


def aggregate_weighted_mean(updates, weights) -> np.ndarray:
    """The weighted mean; a (C, K) stack of weight rows gives a (C, P) stack."""
    u, wt, total, one = _as_arrays(updates, weights)
    out = np.stack([(row[:, None] * u).sum(axis=0) / t for row, t in zip(wt, total)])
    return out[0] if one else out


def aggregate_weighted_median(updates, weights) -> np.ndarray:
    """Coordinatewise weighted lower median.

    Per coordinate: the smallest value whose cumulative weight, over values
    sorted ascending with ties in client order, reaches half the total.
    Each block of coordinates is ranked once (_rank), and each row's
    cumulative weight crosses half the total once.  A (C, K) stack of weight
    rows shares the ranking, and each row's median has the bytes of its own.
    """
    u, wt, total, one = _as_arrays(updates, weights)
    out = np.empty((len(wt), u.shape[1]))
    for cols, order, values in _ranked_blocks(u):
        for median, row, half in zip(out, wt, total / 2):
            cum = row[order]
            np.cumsum(cum, axis=1, out=cum)  # sequential, so row-wise changes no bit
            median[cols] = values[np.arange(len(cum)), (cum >= half).argmax(axis=1)]
    return out[0] if one else out


def aggregate_trimmed_mean(updates, weights, beta: float) -> np.ndarray:
    """Coordinatewise mean after trimming beta of the weight mass per tail.

    A client straddling a trim boundary keeps only the fraction of its
    weight inside the surviving band, so the trimmed mass is exactly
    beta * total on each side.  Ranked as in aggregate_weighted_median
    (_rank), so the band splits a run of equal values by client order.  In
    a (C, K) stack of weight rows, later rows reuse the first's ranking.
    """
    TrimmedMean(beta)  # refuses beta outside [0, 1/2)
    u, wt, total, one = _as_arrays(updates, weights)
    terms = np.empty(u.shape)  # (K, P), summed once down axis 0 one client at a time, not pairwise
    out, kept = np.empty((len(wt), u.shape[1])), []
    for c, (row, t) in enumerate(zip(wt, total)):
        for cols, order, values in _ranked_blocks(u, kept if c else None):
            if c == 0 and len(wt) > 1:  # later rows read the values again in this order
                kept.append(order.astype(np.int32))
            lower = row[order]  # each client's weight, turned in place into where its band starts
            cum = np.cumsum(lower, axis=1)
            np.maximum(np.subtract(cum, lower, out=lower), beta * t, out=lower)
            upper = np.minimum(cum, (1 - beta) * t, out=cum)
            surviving = np.clip(np.subtract(upper, lower, out=upper), 0.0, None, out=upper)
            np.multiply(surviving.T, values.T, out=terms[:, cols])
        out[c] = terms.sum(axis=0) / (t - 2 * beta * t)
    return out[0] if one else out


def aggregate(kind: Aggregator, updates, weights) -> np.ndarray:
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


def _norm(w: np.ndarray) -> float:
    """Euclidean norm of w: np.linalg.norm's while the largest |entry| lies in
    [2^-500, 2^500]; beyond, where squares overflow (past 2^512) or lose bits
    (below 2^-511), np.linalg.norm of w scaled by a power of two, scaled back."""
    big = float(np.abs(w).max())
    scale = 2.0**-600 if big > 2.0**500 else 2.0**600 if 0 < big < 2.0**-500 else 1.0
    return float(np.linalg.norm(w * scale)) / scale  # a norm beyond the float range is inf


def run_training(model, clients: Sequence[ClientSpec], testset: Dataset,
                 cfgs: Sequence[TrainConfig]) -> list[tuple[Optional[np.ndarray], list]]:
    """Train one model per config on the same clients, in lockstep; returns
    each config's final parameters and per-round metrics, or (None, []) when
    its preprocess mode is infeasible.

    Configs equal but for preprocess mode, aggregator and rounds whose weights
    allow the same rows (always, under honest_use_all_samples) form a row
    group: one row pool and initial model, and per round one selection and
    round_plan.  Its models that are byte-equal at a round's start train once
    into one (m, P) matrix, which each aggregator kind reads once for the
    stack of their weight rows.  A non-finite aggregate ends a run on NaN metrics.
    """
    clients = sorted(clients, key=lambda c: c.id)
    if [c.id for c in clients] != list(range(len(clients))):
        raise ValueError("client ids must be distinct and 0..K-1")
    declared, sizes = [c.declared_size for c in clients], [len(c.data) for c in clients]
    groups, cells = {}, []  # row group: (pool, offset, n), initial model, config
    for cfg in cfgs:
        cells.append(cell := SimpleNamespace(cfg=cfg, w=None, metrics=[]))
        try:
            cell.weight = preprocess(declared, cfg.preprocess)
        except PreprocessInfeasible:
            continue  # the run never starts
        rows = cfg.honest_use_all_samples or np.array([*map(min, cell.weight, sizes)]).tobytes()
        cell.group = repr(replace(cfg, rounds=0, preprocess=None, aggregator=None)), rows
        if cell.group not in groups:
            pool = _row_pool([_training_rows(model, c, cfg, cell.weight[c.id]) for c in clients])
            groups[cell.group] = pool, model.init_params(stream(cfg.master_seed, _TAG_INIT)), cfg
        cell.w = groups[cell.group][1]
    live = [c for c in cells if c.w is not None]
    for t in range(1, max((c.cfg.rounds for c in live), default=0) + 1):
        live = [c for c in live if t <= c.cfg.rounds]
        plans, runs = {}, {}  # runs: (row group, model bytes) -> model, cells by aggregator
        for c in live:
            _, kinds = runs.setdefault((c.group, c.w.tobytes()), (c.w, {}))
            kinds.setdefault(c.cfg.aggregator, []).append(c)
        for (group, _), (w, kinds) in runs.items():
            (pool, offset, n), _, cfg = groups[group]
            if group not in plans:  # a round's selection, plan and (m, P) updates matrix
                at = np.array(select_clients(t, len(n), cfg.clients_per_round, cfg.master_seed))
                plan = round_plan(at, offset[at], n[at], cfg, t)
                plans[group] = at.tolist(), plan, np.empty((len(at), len(w)))
            at, plan, updates = plans[group]
            client_update(model, w, plan, pool, updates)
            for kind, same in kinds.items():
                stack = aggregate(kind, updates, [[c.weight[i] for i in at] for c in same])
                for c, aggregated in zip(same, stack):
                    c.w = aggregated
        for c in live:
            ok = np.all(np.isfinite(c.w))  # else the run ends on a NaN accuracy and loss
            c.metrics.append(RoundMetrics(t, accuracy(model, c.w, testset) if ok else math.nan,
                                          model.loss(c.w, testset) if ok else math.nan, _norm(c.w)))
        live = [c for c in live if np.all(np.isfinite(c.w))]
    return [(c.w, c.metrics) for c in cells]
