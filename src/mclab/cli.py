"""Command-line front end.

Subcommands mirror the experiment kinds (phase, cert, lower, equiv,
moments) plus two file-level utilities: ``gen`` writes a serialized ground
truth, ``solve`` completes a serialized sample set against an observed
matrix.  Exit codes: 0 success, 1 configuration / usage error, 2 numeric
failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError, NumericFailureError
from .experiments import (
    MODELS,
    ExperimentConfig,
    apply_overrides,
    emit,
    gen_ground_truth,
    parse_config,
    run,
)
from .linalg import Rng
from .models import gt_to_text
from .sampling import from_text as sampleset_from_text
from .solver import SolverParams, complete, recovered

_NUMERIC_ERRORS = (NumericFailureError, GenerationFailureError)


def _add_experiment_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sub.add_argument("--out", help="output path (default <kind>.csv)")
    sub.add_argument("--seed", type=int, help="base seed")
    sub.add_argument("--threads", type=int, help="worker threads (cells)")
    sub.add_argument("--format", choices=("csv", "svg"), help="output format")


def _cmd_experiment(kind: str, args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), base=cfg)
    apply_overrides(cfg, args.set)
    if cfg.kind and cfg.kind != kind:
        raise InvalidParameterError(
            "config kind %r conflicts with subcommand %r" % (cfg.kind, kind)
        )
    cfg.kind = kind
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    if args.format is not None:
        cfg.format = args.format
    rows = run(cfg)
    out = args.out or cfg.out or (kind + "." + cfg.format)
    emit(rows, out, cfg.format)
    print("wrote %d rows to %s" % (len(rows), out))
    return 0


def _parse_sigma(text):
    if not text:
        return None
    return np.array([float(v) for v in text.split(",") if v.strip()])


def _cmd_gen(args) -> int:
    gt = gen_ground_truth(args.model, args.n, args.r, Rng(args.seed), args.mu0,
                          args.mu_b_cap, sigma=_parse_sigma(args.sigma))
    with open(args.out, "w") as fh:
        fh.write(gt_to_text(gt))
    print("wrote %s ground truth (n=%d r=%d) to %s"
          % (gt.model, gt.n, gt.r, args.out))
    return 0


def _load_matrix(path: str) -> np.ndarray:
    return np.loadtxt(path, ndmin=2)


def _save_matrix(path: str, X: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in np.asarray(X, dtype=float):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _cmd_solve(args) -> int:
    with open(args.samples) as fh:
        sset = sampleset_from_text(fh.read())
    observed = _load_matrix(args.observed)
    params = SolverParams(step=args.step, tol_feas=args.tol_feas,
                          tol_obj=args.tol_obj, max_iter=args.max_iter,
                          rank_cap=args.rank_cap, tau=args.tau)
    res = complete(sset, observed, params)
    _save_matrix(args.out, res.Xhat)
    print("iters=%d feas_resid=%.6e nuclear=%.9g converged=%d"
          % (res.iters, res.feas_resid, res.nuclear_value, int(res.converged)))
    if args.truth:
        truth = _load_matrix(args.truth)
        ok, rel = recovered(truth, res.Xhat)
        print("relerr=%.6e recovered=%d" % (rel, int(ok)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclab",
        description="Low-rank matrix completion laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for kind, blurb in (
        ("phase", "solver recovery-rate sweep"),
        ("cert", "dual-certificate sweep"),
        ("lower", "block-coverage lower-bound experiment"),
        ("equiv", "uniform vs Bernoulli sampling comparison"),
        ("moments", "trace-moment Monte Carlo"),
    ):
        sub = subs.add_parser(kind, help=blurb)
        _add_experiment_flags(sub)
        sub.set_defaults(func=lambda a, k=kind: _cmd_experiment(k, a))

    gen = subs.add_parser("gen", help="write a serialized ground truth")
    gen.add_argument("--model", required=True, choices=MODELS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--r", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--mu0", type=float, default=2.0, help="block model target")
    gen.add_argument("--mu-b-cap", dest="mu_b_cap", type=float, default=6.0)
    gen.add_argument("--sigma", help="comma-separated singular values")
    gen.set_defaults(func=_cmd_gen)

    solve = subs.add_parser("solve", help="complete a serialized sample set")
    solve.add_argument("--samples", required=True, help="sample-set text file")
    solve.add_argument("--observed", required=True, help="observed matrix file")
    solve.add_argument("--out", required=True, help="completed matrix output")
    solve.add_argument("--truth", help="optional reference matrix")
    solve.add_argument("--step", type=float, default=1.2)
    solve.add_argument("--tol-feas", dest="tol_feas", type=float, default=1e-6)
    solve.add_argument("--tol-obj", dest="tol_obj", type=float, default=1e-9)
    solve.add_argument("--max-iter", dest="max_iter", type=int, default=3000)
    solve.add_argument("--rank-cap", dest="rank_cap", type=int, default=None)
    solve.add_argument("--tau", type=float, default=None)
    solve.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
