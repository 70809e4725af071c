"""Workload table and output checks for the mclab benchmark.

Every workload is a fixed cycle of experiment configs.  Call ``i`` of a run
is one ``mclab.experiments.run`` call; its config seed is derived from the
run seed, so the same ``--seed`` always gives the same inputs.  At
``--seed 0`` the config seeds start at the acceptance checks' own seeds
(7 for check 04, 41 for check 07, 31 for check 06, 1091 for check 09).

Output checks come in two parts:

* per call: the rows are well formed and, where ``reference.json`` holds the
  seed commit's outputs for that (kind, seed), the ``successes`` counts
  (plus ``prob_empirical`` for ``lower`` and ``moment_mean`` for
  ``moments``) match them; calls without a reference are held to the
  per-row acceptance conditions of checks 06 and 09;
* per run: calls without a reference are pooled and held to the
  acceptance conditions that are statistical over trials (recovery >= 0.90
  and certificates >= 0.90 on the check-04 cell, the check-07 inequality).
  A pooled condition that fails fails every call it pooled.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

# stride between the config-seed ranges of consecutive run seeds; one run
# makes far fewer calls of one kind than this
SEED_STRIDE = 100_000

CHECK04_N, CHECK04_R = 48, 2
CHECK04_M = math.ceil(10 * CHECK04_N * CHECK04_R * math.log10(CHECK04_N))  # 1614

# config fields per kind; ``seed`` is filled in per call
KIND_CONFIGS = {
    "phase": dict(kind="phase", model="random_orth", n_grid=(CHECK04_N,),
                  r_grid=(CHECK04_R,), m_grid=(CHECK04_M,), trials=1),
    "cert": dict(kind="cert", model="random_orth", cert_method="neumann",
                 n_grid=(CHECK04_N,), r_grid=(CHECK04_R,), m_grid=(CHECK04_M,),
                 trials=1),
    "equiv": dict(kind="equiv", model="random_orth", n_grid=(32,), r_grid=(1,),
                  m_grid=(194,), equiv_p="2m", trials=1),
    # check 06's cell; 2000 trials keep |empirical - closed| far inside the
    # 0.03 tolerance (about 5 standard errors) on every seed
    "lower": dict(kind="lower", model="block", n_grid=(40,), r_grid=(2,),
                  mu0_grid=(2.0,), p_grid=(0.2,), trials=2000),
    # check 09's grid, one call per grid
    "moments": dict(kind="moments", model="random_orth", n_grid=(16, 32),
                    r_grid=(1,), p_grid=(0.5,), j_grid=(1, 2), k_grid=(0, 1, 2),
                    trials=60),
}

# the first config seed of each kind at --seed 0: the acceptance checks' seeds
BASE_SEEDS = {"phase": 7, "cert": 7, "equiv": 41, "lower": 31, "moments": 1091}

# rows one call returns
ROWS_PER_CALL = {"phase": 1, "cert": 1, "equiv": 1, "lower": 1, "moments": 12}

# a tiny call of each kind: imports and first-call set-up, not the workload
WARMUP_CONFIGS = {
    "phase": dict(kind="phase", n_grid=(8,), r_grid=(1,), m_grid=(40,),
                  trials=1, solver_max_iter=20),
    "cert": dict(kind="cert", n_grid=(8,), r_grid=(1,), m_grid=(48,), trials=1),
    "equiv": dict(kind="equiv", n_grid=(8,), r_grid=(1,), m_grid=(40,),
                  trials=1, solver_max_iter=20),
    "lower": dict(kind="lower", model="block", n_grid=(8,), r_grid=(1,),
                  mu0_grid=(2.0,), p_grid=(0.5,), trials=2),
    "moments": dict(kind="moments", n_grid=(8,), r_grid=(1,), p_grid=(0.5,),
                    trials=2),
}


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # kinds of the calls in one round; runs end on a whole round
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("phase-converge", ("phase",),
                 "check-04 cell: every solve converges, so the SVT threshold "
                 "step dominates"),
        Workload("equiv-stall", ("equiv",),
                 "check-07 cell: two solves per trial that mostly run to the "
                 "iteration cap, the grind that dominates suite time"),
        Workload("cert-neumann", ("cert",),
                 "check-04 cell and seeds, Neumann certificates: certificate "
                 "engine only, the solver is never called"),
        # two moments calls per lower call put the median call inside one
        # mode (moments) and the tail in the other (lower)
        Workload("sample-light", ("moments", "lower", "moments"),
                 "checks 06 and 09: no solver and no certificate, so sampling "
                 "as index set (lower) and as operator (moments) dominates"),
    )
}


def config_seed(kind: str, run_seed: int, k: int) -> int:
    """Config seed of the k-th call of ``kind`` in a run."""
    return BASE_SEEDS[kind] + SEED_STRIDE * run_seed + k


def call_plan(workload: Workload, run_seed: int):
    """Endless (kind, config seed) sequence of a run, round by round."""
    counts = dict.fromkeys(workload.cycle, 0)
    while True:
        for kind in workload.cycle:
            yield kind, config_seed(kind, run_seed, counts[kind])
            counts[kind] += 1


def make_config(mclab_experiments, kind: str, seed: int):
    return mclab_experiments.ExperimentConfig(seed=seed, threads=1,
                                              **KIND_CONFIGS[kind])


def make_warmup_config(mclab_experiments, kind: str):
    return mclab_experiments.ExperimentConfig(seed=1, threads=1,
                                              **WARMUP_CONFIGS[kind])


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def row_outputs(kind: str, rows) -> dict:
    """The outputs the reference pins for one call."""
    out = {"successes": [int(r.successes) for r in rows]}
    if kind == "lower":
        out["prob_empirical"] = [float(r.prob_empirical) for r in rows]
    if kind == "moments":
        out["moment_mean"] = [float(r.moment_mean) for r in rows]
    return out


def _finite(x) -> bool:
    return x is None or (isinstance(x, (int, float)) and math.isfinite(x))


def check_call(kind: str, seed: int, rows, reference: dict):
    """Per-call check.  Returns (error or None, pooled counts or None).

    Pooled counts are returned only for calls without a reference; they feed
    ``check_pooled``.
    """
    if len(rows) != ROWS_PER_CALL[kind]:
        return "expected %d rows, got %d" % (ROWS_PER_CALL[kind], len(rows)), None
    for r in rows:
        if r.kind != kind or not (0 <= r.successes <= r.trials):
            return "malformed row %r" % (r,), None
        if not all(_finite(getattr(r, f)) for f in ("success_rate", "mean_relerr",
                                                    "mean_a_stat", "moment_mean")):
            return "non-finite output in row %r" % (r,), None
    ref = reference.get(kind, {}).get(str(seed))
    got = row_outputs(kind, rows)
    if ref is not None:
        if got["successes"] != ref["successes"]:
            return "successes %s != reference %s" % (got["successes"],
                                                     ref["successes"]), None
        if kind == "lower" and got["prob_empirical"] != ref["prob_empirical"]:
            return "prob_empirical %s != reference %s" % (
                got["prob_empirical"], ref["prob_empirical"]), None
        if kind == "moments":
            for a, b in zip(got["moment_mean"], ref["moment_mean"]):
                if abs(a - b) > 1e-9 * max(abs(b), 1.0):
                    return "moment_mean %r != reference %r" % (a, b), None
        return None, None
    if kind == "lower":
        r = rows[0]
        diff = abs(r.prob_empirical - r.prob_closed)
        if diff > 0.03:  # check 06
            return "|empirical - closed| = %.4f > 0.03" % diff, None
        return None, None
    if kind == "moments":
        worst = max(r.moment_mean / r.moment_bound_poly for r in rows)
        if worst > 10.0:  # check 09
            return "max mean/bound_poly = %.3g > 10" % worst, None
        return None, None
    r = rows[0]
    if kind == "equiv":
        return None, (r.trials, r.trials - r.successes,
                      int(round(r.fail_ber * r.trials)))
    return None, (r.trials, r.successes)


def check_pooled(kind: str, pooled: list):
    """Run-level acceptance condition on the pooled counts of one kind."""
    if not pooled:
        return None
    if kind in ("phase", "cert"):
        trials = sum(p[0] for p in pooled)
        rate = sum(p[1] for p in pooled) / trials
        if rate < 0.90:  # check 04, both halves
            return "%s success rate %.3f < 0.90 over %d trials" % (kind, rate, trials)
        return None
    if kind == "equiv":
        tr = sum(p[0] for p in pooled)
        rate_u = sum(p[1] for p in pooled) / tr
        rate_b = sum(p[2] for p in pooled) / tr
        se = math.sqrt(rate_u * (1 - rate_u) / tr + 4.0 * rate_b * (1 - rate_b) / tr)
        if rate_u > 2.0 * rate_b + 3.0 * se:  # check 07
            return ("fail_unif %.3f > 2*%.3f + 3*%.3f over %d trials"
                    % (rate_u, rate_b, se, tr))
        return None
    return None


def reference_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def warm_up(mclab, workload: Workload):
    """One tiny call of each kind the workload runs."""
    for kind in dict.fromkeys(workload.cycle):
        mclab.experiments.run(make_warmup_config(mclab.experiments, kind))
