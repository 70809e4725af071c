"""Command-line front end.

One subcommand per run kind of ``experiments.KINDS``, plus two file-level
utilities: ``gen`` writes a serialized ground truth, ``solve`` completes a
serialized sample set against an observed matrix.  Exit codes: 0 success,
1 configuration / usage error, 2 numeric failure; a usage error that
argparse itself reports (an unknown subcommand, a missing required flag)
also exits 2.  Flag values are parsed after argparse, so a bad one raises
InvalidParameterError and exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError, NumericFailureError
from .experiments import (
    KINDS,
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
from .sampling import _number, from_text as sampleset_from_text
from .solver import SolverParams, complete, recovered

_NUMERIC_ERRORS = (NumericFailureError, GenerationFailureError)

# `mclab solve` has one flag per SolverParams field, parsed by the field's
# type: the annotation, or X of an 'X | None'
_SOLVER_FLAGS = {name: (typing.get_args(hint) or (hint,))[0]
                 for name, hint in typing.get_type_hints(SolverParams).items()}


def _add_experiment_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sub.add_argument("--out", help="output path (default <kind>.csv)")
    sub.add_argument("--seed", help="base seed; same as --set seed=VALUE, applied "
                                    "after every --set")


def _check_out(path: str) -> str:
    """Refuse an output path that cannot be opened for writing (a directory,
    or a file in a directory that does not exist) before any work is done."""
    if os.path.isdir(path):
        raise InvalidParameterError("--out %s is a directory" % path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise InvalidParameterError("--out %s: no such directory" % path)
    return path


def _cmd_experiment(kind: str, args) -> int:
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read(), base=cfg)
    apply_overrides(cfg, args.set + ([] if args.seed is None else ["seed=" + args.seed]))
    if cfg.kind and cfg.kind != kind:
        raise InvalidParameterError(
            "config kind %r conflicts with subcommand %r" % (cfg.kind, kind)
        )
    cfg.kind = kind
    out = _check_out(args.out or cfg.out or kind + ".csv")
    rows = run(cfg)
    emit(rows, out)
    print("wrote %d rows to %s" % (len(rows), out))
    return 0


def _typed(args, **kinds):
    """Parse the named flags of args in place, each by its kind; a bad
    value raises InvalidParameterError."""
    for name, kind in kinds.items():
        if getattr(args, name) is not None:
            setattr(args, name, _number(kind, getattr(args, name),
                                        "--" + name.replace("_", "-")))


def _parse_sigma(text):
    if not text:
        return None
    return np.array([_number(float, v, "--sigma") for v in text.split(",") if v.strip()])


def _cmd_gen(args) -> int:
    _typed(args, n=int, r=int, seed=int, mu0=float, mu_b_cap=float)
    _check_out(args.out)
    gt = gen_ground_truth(args.model, args.n, args.r, Rng(args.seed), args.mu0,
                          args.mu_b_cap, sigma=_parse_sigma(args.sigma))
    with open(args.out, "w") as fh:
        fh.write(gt_to_text(gt))
    print("wrote %s ground truth (n=%d r=%d) to %s"
          % (gt.model, gt.n, gt.r, args.out))
    return 0


def _load_matrix(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise InvalidParameterError("%s: %s" % (path, exc)) from None


def _save_matrix(path: str, X: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in np.asarray(X, dtype=float):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _cmd_solve(args) -> int:
    _typed(args, **_SOLVER_FLAGS)
    with open(args.samples) as fh:
        sset = sampleset_from_text(fh.read())
    observed = _load_matrix(args.observed)
    truth = _load_matrix(args.truth) if args.truth else None
    grid = (sset.n1, sset.n2)
    if truth is not None and truth.shape != grid:
        raise InvalidParameterError("--truth shape %r vs sample grid %r" % (truth.shape, grid))
    _check_out(args.out)  # refused before the solve, not after it
    params = SolverParams(**{name: getattr(args, name) for name in _SOLVER_FLAGS
                             if getattr(args, name) is not None})
    res = complete(sset, observed, params)
    _save_matrix(args.out, res.Xhat)
    print("iters=%d feas_resid=%.6e nuclear=%.9g converged=%d"
          % (res.iters, res.feas_resid, res.nuclear_value, int(res.converged)))
    if truth is not None:
        ok, rel = recovered(truth, res.Xhat)
        print("relerr=%.6e recovered=%d" % (rel, int(ok)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclab",
        description="Low-rank matrix completion laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for kind, (_axes, _cell, blurb) in KINDS.items():
        sub = subs.add_parser(kind, help=blurb)
        _add_experiment_flags(sub)
        sub.set_defaults(func=lambda a, k=kind: _cmd_experiment(k, a))

    gen = subs.add_parser("gen", help="write a serialized ground truth")
    gen.add_argument("--model", required=True, help=" | ".join(MODELS))
    gen.add_argument("--n", required=True)
    gen.add_argument("--r", required=True)
    gen.add_argument("--seed", default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--mu0", default=2.0, help="block model target")
    gen.add_argument("--mu-b-cap", dest="mu_b_cap", default=6.0)
    gen.add_argument("--sigma", help="comma-separated singular values")
    gen.set_defaults(func=_cmd_gen)

    solve = subs.add_parser("solve", help="complete a serialized sample set")
    solve.add_argument("--samples", required=True, help="sample-set text file")
    solve.add_argument("--observed", required=True, help="observed matrix file")
    solve.add_argument("--out", required=True, help="completed matrix output")
    solve.add_argument("--truth", help="optional reference matrix")
    for name in _SOLVER_FLAGS:
        solve.add_argument("--" + name.replace("_", "-"), help="SolverParams." + name)
    solve.set_defaults(func=_cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
