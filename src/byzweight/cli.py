"""Command-line front end: tradeoff, certify, bound, simulate.

Exit codes: 0 success, 1 bound violated (lhs > rhs), 2 refused input (bad
arguments, config or file, or too large to allocate; only `main` maps it),
3 infeasible or empty result, 4 certificate refused.  All file output is CSV
with \\n endings.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .certificate import CertificateParams, certify_sample, int64_weights
from .config import read_config
from .experiment import build_clients, build_task, run_grid
from .tasks import objective_gap
from .weights import as_fraction, read_weights_file, tradeoff_curve, truncate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_CERTIFIED = 4


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def cmd_tradeoff(args) -> int:
    curve = tradeoff_curve(read_weights_file(args.weights), args.alpha_star)
    if not curve.rows:
        print(
            "no feasible pairs: every candidate assumption is already satisfied "
            "or unattainable for this weight vector",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    text = curve.to_csv()
    if args.out_dir:
        print(_write(args.out_dir, "tradeoff.csv", text))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_certify(args) -> int:
    weights = read_weights_file(args.weights)
    params = CertificateParams(
        sample_size=args.k,
        alpha=args.alpha,
        alpha_star=args.alpha_star,
        delta=args.delta,
        cap=args.u,
    )
    capped = int64_weights(truncate(weights, args.u).values)
    try:
        sample = np.random.default_rng(args.seed).choice(capped, size=args.k, replace=True)
    except MemoryError:
        return _fail(f"a sample of {args.k} weights does not fit in memory; lower --k")
    result = certify_sample(sample, params)
    text = result.to_csv()
    if args.out_dir:
        _write(args.out_dir, "certificate.csv", text)
    sys.stdout.write(text)
    return EXIT_OK if result.certified else EXIT_NOT_CERTIFIED


def cmd_bound(args) -> int:
    cfg = read_config(args.config)
    shards, _ = build_task(cfg)
    clients = build_clients(cfg, cfg.scenarios[0], shards)
    model = cfg.model()
    w = np.random.default_rng(args.seed).standard_normal(model.param_count) * 0.1
    lhs, rhs = objective_gap(model, w, [c.data for c in clients], clients.declared, args.u)
    sys.stdout.write(f"lhs,rhs\n{lhs!r},{rhs!r}\n")
    return EXIT_OK if lhs <= rhs + 1e-9 else 1


def cmd_simulate(args) -> int:
    cfg = read_config(args.config)
    if args.jobs < 1:
        return _fail("jobs must be >= 1")
    out = args.out_dir if args.out_dir is not None else cfg.out_dir
    results = run_grid(cfg, out, jobs=args.jobs)
    print(f"{len(results)} cells -> {os.path.join(out, 'summary.csv')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="byzweight",
        description="Robust client-weight preprocessing and a deterministic "
        "federated-training simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "tradeoff",
        help="assumption-vs-cap pairs for a declared weight file",
    )
    p.add_argument("--weights", required=True, help="file with one integer per line")
    p.add_argument("--alpha-star", required=True, type=as_fraction, help="share limit")
    p.add_argument("--out-dir", help="write tradeoff.csv here instead of stdout")
    p.set_defaults(run=cmd_tradeoff)

    p = sub.add_parser(
        "certify",
        help="sampled certificate that capped weights meet the share limit",
    )
    p.add_argument("--weights", required=True)
    p.add_argument("--k", required=True, type=int, help="sample size")
    p.add_argument("--alpha", required=True, type=as_fraction)
    p.add_argument("--alpha-star", required=True, type=as_fraction)
    p.add_argument("--delta", required=True, type=float, help="failure probability")
    p.add_argument("--u", required=True, type=int, help="cap applied before sampling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", help="also write certificate.csv here")
    p.set_defaults(run=cmd_certify)

    p = sub.add_parser(
        "bound",
        help="objective-gap bound for the configured task at a random point",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--u", required=True, type=int, help="declared-size cap")
    p.add_argument("--seed", type=int, default=0, help="seed for the random point")
    p.set_defaults(run=cmd_bound)

    p = sub.add_parser("simulate", help="run the full experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="override the config output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel cell workers")
    p.set_defaults(run=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # numpy's own message does not name the seed
        return _fail("seed must be a non-negative integer")
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # the library's input checks, an unusable --out-dir
        return _fail(str(exc))
    except MemoryError as exc:  # numpy names the size; a bare MemoryError has no message
        return _fail(str(exc) or "an input is too large to allocate")


if __name__ == "__main__":
    sys.exit(main())
