"""Deterministic federated training with unreliable clients.

The server runs rounds of select / update / aggregate.  Every client ships a
declared sample count up front; the preprocessor maps the declarations to one
weight per client, once, and those weights are what the aggregation rule sees.
Attackers either negate the server model each round or train on flipped
labels.  All randomness is drawn from streams keyed on
(master_seed, purpose, round, client), so results are bit-identical no matter
how client work is scheduled.  A population is arrays (Clients), and a
client's id is its position in them.

run_training trains cells of one TrainConfig, which differ only in preprocess
mode and aggregator, in lockstep on one dataset: one selection a round, one
round_plan (its shuffles, batch schedule and rows, read through an index) per
set of usable rows, and each distinct model trains once (client_update, whose
lanes step in lockstep too, which changes no bit) into one matrix in ascending
client id.  With M > 1 models, its chained clients (more than one batch; most
rows first, at most m // M of m) train once for all M, in one tiled pass: one
more matrix at most.  The median and trimmed mean rank client-major copies of
the matrix, a cache-sized block of columns at a time, ties in client order
(_rank): one int64 sort of keys that pack a value's high bits above its client
id, and a stable argsort of the few rows that come out of order.  The ranking
reads no weight, so runs of one aggregator kind share it.

A stream is built only where something is drawn from it: the init stream
once per run; the select stream in a round where only some clients take
part; the subset stream once per set of usable rows for each client cut
to fewer rows than it holds but more than none (keyed on the client alone);
and per (round, training client) the shuffle stream when it trains on more
than one row, and per distinct model the dropout stream when dropout_rate >
0.  Each purpose has its own tag, so a stream left unbuilt changes no other
draw.  A round's shuffle streams, and a row pool's subset streams, are
seeded in one batch (streams), drawing the same numbers.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .tasks import Dataset, SizeMismatch, accuracy
from .weights import PreprocessInfeasible, PreprocessMode, exact_counts, preprocess


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

_STACK_ROWS = 256  # rows per stacked gradient call (a tiled plan's may hold `models` slices)
_INT64_MAX = np.iinfo(np.int64).max
# round_plan's stream key, each lane's client and row count, stacked calls (lanes as a slice
# or an index, lanes, scales), and each epoch's rows of each call
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


ClientSpec = namedtuple("ClientSpec", "id data declared_size behavior")


@dataclass(frozen=True, eq=False)
class Clients:
    """A population, client i at position i: every client's rows in one
    Dataset, client by client; each one's row count (size, int64), declared
    count (one exact_counts array, since a lie may exceed int64) and Behavior.
    Indexing gives client i as a ClientSpec whose rows are a view of data."""

    data: Dataset
    size: np.ndarray
    declared: np.ndarray
    behavior: np.ndarray
    start: np.ndarray = field(init=False, repr=False)  # each client's first row in data

    def __post_init__(self) -> None:
        size = np.asarray(self.size, dtype=np.int64)
        declared = exact_counts(self.declared)
        behavior = np.fromiter(self.behavior, dtype=object)  # np.array probes each item: 10x slower
        if not len(size) == len(declared) == len(behavior):
            raise ValueError("need one size, declared count and behavior per client")
        for name, value in [("size", size), ("declared", declared), ("behavior", behavior),
                            ("start", np.cumsum(size) - size)]:
            object.__setattr__(self, name, value)
        if (empty := np.flatnonzero(size < 1)).size:
            raise EmptyClientData(f"client {empty[0]} holds no samples")
        if size.sum() != len(self.data):
            raise SizeMismatch(f"sizes sum to {size.sum()} "
                               f"but the dataset holds {len(self.data)} rows")
        if declared.min() < 1:
            raise ValueError("declared_size must be a positive integer")
        # honest clients report their true size; only attackers may lie
        lied = np.flatnonzero((behavior == Behavior.HONEST) & (declared != size))
        if lied.size:
            i = lied[0]
            raise ValueError(f"honest client {i} declares {declared[i]} but holds {size[i]}")

    def __len__(self) -> int:
        return len(self.size)

    def __getitem__(self, i: int) -> ClientSpec:
        i = range(len(self))[i]  # IndexError past either end, which also ends iteration
        rows = slice(self.start[i], self.start[i] + self.size[i])
        return ClientSpec(i, self.data.subset(rows), int(self.declared[i]), self.behavior[i])


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
    """Server-side knobs every cell of a lockstep run shares; batch_size is an
    absolute count, or a fraction of each client's usable samples when given
    as a float in (0, 1]."""

    rounds: int
    eta: float
    epochs: int
    batch_size: Union[int, float]
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


def _row_pool(clients: Clients, n: np.ndarray, seed: int) -> np.ndarray:
    """Each client's n usable rows of the run's dataset, client by client, as
    one ascending int64 index: every row of a client with n == rows held, and
    each cut client's (0 < n < rows held) fixed subset, the first n of a
    permutation from its subset stream (seeded in one batch, streams)."""
    size = clients.size
    cut = np.flatnonzero((0 < n) & (n < size))
    rows = np.repeat(n == size, size)
    for i, rng in zip(cut.tolist(), streams(seed, _TAG_SUBSET, cut)):
        rows[clients.start[i] + rng.permutation(size[i])[:n[i]]] = True
    return np.flatnonzero(rows)


def _batch_sizes(cfg: TrainConfig, n: np.ndarray) -> np.ndarray:  # client i's, for n[i] rows
    b = cfg.batch_size
    return np.maximum(1, np.ceil(b * n)).astype(int) if isinstance(b, float) else np.full(n.size, b)


def round_plan(index: np.ndarray, ids: np.ndarray, offset: np.ndarray, n: np.ndarray,
               cfg: TrainConfig, round_index: int, models: int = 1) -> RoundPlan:
    """What a round's local work reads besides the models, where client ids[i]
    trains on the dataset rows index[offset[i]:offset[i] + n[i]], as lane
    i * models + j from model j: one shuffle per epoch for each client of more
    than one row, which its lanes share, and the batches sorted by (step,
    length, lane), equal steps and lengths stacked up to _STACK_ROWS rows, or
    to models slices; each epoch maps its positions through index once."""
    b = _batch_sizes(cfg, n)
    many = n > 1
    shuffles = zip(streams(cfg.master_seed, _TAG_SHUFFLE, round_index, ids[many]), n[many].tolist())
    perms = [[rng.permutation(k) for _ in range(cfg.epochs)] for rng, k in shuffles]
    # the schedule: each lane's batches as (lane, start, length), sorted by (step, length, lane);
    # start counts rows in the round's order, client by client
    steps = np.repeat(-(-n // b), models)
    lane = np.repeat(np.arange(steps.size), steps)
    who = lane // models
    step = np.arange(lane.size) - np.repeat(np.cumsum(steps) - steps, steps)
    length = np.minimum(b[who], n[who] - step * b[who])
    order = np.lexsort((lane, length, step))
    lane, who, step, length = lane[order], who[order], step[order], length[order]
    start, scale = (np.cumsum(n) - n)[who] + step * b[who], cfg.eta * (length / b[who])
    firsts = np.flatnonzero((np.diff(step, prepend=-1) != 0) | (np.diff(length, prepend=-1) != 0))
    bounds = []  # (first, end, batch length) in the sorted schedule
    for lo, hi in zip(firsts.tolist(), [*firsts[1:].tolist(), lane.size]):
        per = max(models, _STACK_ROWS // int(length[lo]))
        bounds += [(k, min(k + per, hi), int(length[lo])) for k in range(lo, hi, per)]
    stacks = [(slice(lane[lo], lane[lo] + 1) if hi - lo == 1 else lane[lo:hi], lane[lo:hi],
               scale[lo:hi, None]) for lo, hi, _ in bounds]
    windows = []
    for epoch in range(cfg.epochs):
        pos = np.repeat(offset, n)  # the round's positions in index; a one-row client stays put
        if perms:
            pos[np.repeat(many, n)] += np.concatenate([p[epoch] for p in perms])
        rows = index[pos]
        windows.append([rows[start[lo:hi, None] + np.arange(size)] for lo, hi, size in bounds])
    return RoundPlan(cfg.master_seed, round_index, np.repeat(ids, models), np.repeat(n, models),
                     stacks, windows)


def client_update(model, w: np.ndarray, plan: RoundPlan, data: Dataset,
                  updates: np.ndarray) -> np.ndarray:
    """One round of local work from each of the (models, P) start models w,
    written into updates (len(plan.ids), P): row i is lane i's update, client
    plan.ids[i]'s from model i % models, on its rows of data in plan's order.

    A client with no rows (a model-negation attacker) sends -w.  Every other
    client runs epochs passes of mini-batch SGD from w over its rows; a
    short final batch of r samples steps with its gradient scaled by
    r/batch_size, so every sample contributes 1/batch_size of its gradient
    once per epoch.

    Batches of equal length share stacked model.gradient calls, which
    changes no bit: each lane keeps its own parameters, rows and streams,
    steps by the same float eta * (r / batch_size), and a stacked product
    computes each slice as a call on that slice alone.  Dropout masks come
    from streams keyed on (round, client), built anew for each lane in each call.
    """
    for j, start in enumerate(w := np.atleast_2d(w)):  # (P,) is the stack of one
        updates[j::len(w)] = start
    np.negative(updates, out=updates, where=(plan.n == 0)[:, None])
    drops = getattr(model, "dropout_rate", 0) > 0
    dropout = drops and [stream(plan.seed, _TAG_DROPOUT, plan.round, i) if k else None
                         for k, i in zip(plan.n.tolist(), plan.ids.tolist())]
    for windows in plan.windows:
        for (who, lanes, scale), window in zip(plan.stacks, windows):
            # one lane's parameters are a view; several are gathered once and scattered back
            params = updates[who]
            rngs = [dropout[i] for i in lanes] if drops else None
            grad = model.gradient(params, data.subset(window), rngs)
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
    terms = np.empty(u.shape)  # (K, P), P >= 2 (every model): summed down axis 0 a client at a time
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


def select_clients(round_index: int, population: int,
                   clients_per_round: Optional[Union[int, float]], master_seed: int) -> np.ndarray:
    """Ids participating this round, an ascending int64 array; uniform without replacement."""
    m = participants_per_round(clients_per_round, population)
    if m == population:
        return np.arange(population, dtype=np.int64)
    rng = stream(master_seed, _TAG_SELECT, round_index)
    return np.sort(rng.choice(population, size=m, replace=False))


def _norm(w: np.ndarray) -> float:
    """Euclidean norm of w: np.linalg.norm's while the largest |entry| lies in
    [2^-500, 2^500]; beyond, where squares overflow (past 2^512) or lose bits
    (below 2^-511), np.linalg.norm of w scaled by a power of two, scaled back."""
    big = float(np.abs(w).max())
    scale = 2.0**-600 if big > 2.0**500 else 2.0**600 if 0 < big < 2.0**-500 else 1.0
    return float(np.linalg.norm(w * scale)) / scale  # a norm beyond the float range is inf


def run_training(model, clients: Clients, testset: Dataset, cfg: TrainConfig,
                 cells: Sequence[tuple[PreprocessMode, Aggregator]]
                 ) -> list[tuple[Optional[np.ndarray], list]]:
    """Train one model per (preprocess mode, aggregator) cell under cfg, in
    lockstep from one initial model (drawn if any cell is feasible) and one
    selection a round; returns each cell's final parameters and per-round
    metrics, or (None, []) when its preprocess mode is infeasible.  Each
    distinct mode is preprocessed once into one weight array, which its
    cells share and each round indexes with select_clients' id array.

    Label-shift labels y become (classes-1)-y once a run, in the one dataset
    every client_update reads; model-negation attackers train on no rows.
    Cells with the same usable row counts (the rest all held under
    honest_use_all_samples, else min(weight, rows held)), keyed on a digest of
    the int64 counts, form a row group: one index of its rows (_row_pool), one
    round_plan a round.  Its byte-equal models at a round's start train once
    into one (m, P) matrix (M > 1 models: chained clients once for all M,
    copied in from one tiled block), which each aggregator kind reads once for
    the stack of their weight rows.  Each distinct model is evaluated once a
    run, keyed on a digest of its bytes (the bytes of all rounds' models would
    grow with the rounds); a non-finite one ends its runs on NaN metrics.
    """
    weights = {}  # one preprocess call a distinct mode, none kept when it is infeasible
    for mode in dict.fromkeys(mode for mode, _ in cells):
        with contextlib.suppress(PreprocessInfeasible):
            weights[mode] = preprocess(clients.declared, mode)
    data, behavior = clients.data, clients.behavior
    if (shift := np.repeat(behavior == Behavior.LABEL_SHIFT, clients.size)).any():
        data = Dataset(data.features, np.where(shift, (model.classes - 1) - data.labels, data.labels))
    held = np.where(behavior == Behavior.MODEL_NEGATION, 0, clients.size)  # rows each may train on
    pools, runs = {}, []  # pools: a digest of the usable row counts -> (index, offset, n)
    for mode, kind in cells:
        runs.append(run := SimpleNamespace(kind=kind, rows=None, w=None, metrics=[]))
        run.weight = weights.get(mode)
        if run.weight is None:
            continue  # the run never starts
        n = held if cfg.honest_use_all_samples else np.minimum(run.weight, held)
        n = n.astype(np.int64, copy=False)  # object past 2^63; a digest of int64 counts keys the pools
        run.rows = hashlib.sha256(n).digest()
        if run.rows not in pools:
            pools[run.rows] = (_row_pool(clients, n, cfg.master_seed), np.cumsum(n) - n, n)
    live = [r for r in runs if r.rows is not None]
    w0 = model.init_params(stream(cfg.master_seed, _TAG_INIT)) if live else None
    for r in live:
        r.w = w0
    evals = {}  # sha256 of a model's bytes -> its test accuracy, test loss and norm
    for t in range(1, cfg.rounds + 1):
        if not live:
            break
        at = select_clients(t, len(clients), cfg.clients_per_round, cfg.master_seed)
        groups = {}  # row-count digest -> {a model's bytes: (the model, its runs by kind)}
        for r in live:
            _, kinds = groups.setdefault(r.rows, {}).setdefault(r.w.tobytes(), (r.w, {}))
            kinds.setdefault(r.kind, []).append(r)
        for rows, starts in groups.items():
            index, offset, n = pools[rows]
            offset, n, ws = offset[at], n[at], np.stack([w for w, _ in starts.values()])
            chains = (len(ws) > 1) & (cfg.epochs * -(-n // _batch_sizes(cfg, n)) > 1)  # > 1 batch
            pick = np.flatnonzero(chains)[np.argsort(-n[chains], kind="stable")][:len(at) // len(ws)]
            block = np.empty((len(ws) * pick.size, ws.shape[1]))  # at most one more (m, P)
            if pick.size:
                client_update(model, ws, round_plan(index, at[pick], offset[pick], n[pick], cfg, t,
                                                    len(ws)), data, block)
                n[pick] = 0  # no batch in the group's plan; their rows are copied in from block
            plan, updates = round_plan(index, at, offset, n, cfg, t), np.empty((len(at), ws.shape[1]))
            for j, (w, kinds) in enumerate(starts.values()):
                client_update(model, w, plan, data, updates)
                updates[pick] = block[j::len(ws)]
                for kind, same in kinds.items():
                    stack = aggregate(kind, updates, [r.weight[at] for r in same])
                    for r, aggregated in zip(same, stack):
                        r.w = aggregated
            del block, updates  # freed before the next group's are allocated
        for r in live:
            if (key := hashlib.sha256(r.w.tobytes()).digest()) not in evals:
                ok = np.all(np.isfinite(r.w))  # else the run ends on a NaN accuracy and loss
                evals[key] = (accuracy(model, r.w, testset) if ok else math.nan,
                              model.loss(r.w, testset) if ok else math.nan, _norm(r.w))
            r.metrics.append(RoundMetrics(t, *evals[key]))
        live = [r for r in live if np.all(np.isfinite(r.w))]
    return [(r.w, r.metrics) for r in runs]
