"""Experiment drivers with a frozen CSV schema.

Every run kind (phase sweep, certificate sweep, coverage lower bound,
sampling-model equivalence, trace moments) goes through one cell loop
behind run(): it validates the config, builds the kind's cells from the
table KINDS (grid axes and one function that runs a cell's trials), runs
the cells in order, and times each cell and fills the common columns of
its row.  Every kind emits the same wide row type; columns that do not
apply to a kind stay empty.  Rows come out in sorted cell order and all
randomness is derived from (seed, cell index, trial, slot), so reruns of
the same config are byte-identical.

Paired designs fall out of the stream layout: phase, cert and equiv draw
each trial's ground truth and observation set through one helper, so a
phase run and a certificate run with the same config see the same ground
truths and the same observation sets trial for trial.
"""

from __future__ import annotations

import time
import typing
from dataclasses import dataclass, fields
from functools import partial
from itertools import product

import numpy as np

from .certificate import (
    CERT_METHODS,
    decide,
    estimate_trace_moment,
    try_build_certificate,
    verify_certificate,
)
from .errors import InvalidParameterError
from .geometry import incoherence
from .linalg import Rng
from .models import (
    _check_hadamard_order,
    _check_low_coherence,
    block_model_spec,
    gen_lower_bound_block,
    gen_low_coherence,
    gen_random_orthogonal,
    gen_uniformly_bounded,
    hadamard_family,
)
from .sampling import _bernoulli_masks, _chunks, sample_bernoulli, sample_uniform
from .solver import SolverParams, complete, recovered

_WILSON_Z = 1.959963984540054  # two-sided 95%

# substream slots within a trial; slot 2 is unused, and the numbering is
# kept so that existing configs and seeds reproduce the same draws
_SLOT_MODEL = 0
_SLOT_OMEGA = 1
_SLOT_OMEGA2 = 3

MODELS = ("random_orth", "uniform_bounded", "low_coherence", "block")


@dataclass
class ExperimentConfig:
    """Flat configuration shared by all run kinds.

    Grid fields are tuples; runners use the ones relevant to their kind
    (m_grid for phase/cert/equiv, p_grid for lower/moments, j_grid and
    k_grid for moments, mu0_grid for lower and the block model).
    """

    kind: str = ""
    model: str = "random_orth"
    sampling: str = "bernoulli"
    n_grid: tuple[int, ...] = (32,)
    r_grid: tuple[int, ...] = (2,)
    m_grid: tuple[int, ...] = ()
    p_grid: tuple[float, ...] = ()
    mu0_grid: tuple[float, ...] = (2.0,)
    j_grid: tuple[int, ...] = (1,)
    k_grid: tuple[int, ...] = (0,)
    trials: int = 50
    seed: int = 0
    delta: float = 0.05
    mu_b_cap: float = 6.0
    cert_method: str = "neumann"
    solver_max_iter: int = 3000
    equiv_p: str = "m"
    record_timing: int = 0
    threads: int = 1  # only 1 is accepted; perfbench/workloads.py still sets it
    out: str = ""


def _value_parser(hint):
    """Parser of a config value of type hint; tuples are comma-separated lists."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return lambda text: tuple(item(v) for v in text.split(",") if v.strip())
    return hint


_KEY_PARSERS = {key: _value_parser(hint)
                for key, hint in typing.get_type_hints(ExperimentConfig).items()}


def _assign(cfg: ExperimentConfig, pair: str) -> None:
    """Set one 'key=value' pair on cfg, parsed by the type of its field."""
    key, eq, value = pair.partition("=")
    key, value = key.strip(), value.strip()
    if not eq:
        raise InvalidParameterError("expected key=value, got %r" % pair)
    if key not in _KEY_PARSERS:
        raise InvalidParameterError("unknown config key %r" % key)
    try:
        setattr(cfg, key, _KEY_PARSERS[key](value))
    except ValueError as exc:
        raise InvalidParameterError("bad value for %s: %r" % (key, value)) from exc


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse 'key=value' lines ('#' comments and blanks ignored)."""
    cfg = ExperimentConfig() if base is None else base
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            _assign(cfg, line)
    return cfg


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply --set key=value overrides on top of a parsed config."""
    for pair in pairs:
        _assign(cfg, pair)
    return cfg


def _validate(cfg: ExperimentConfig):
    if cfg.kind not in KINDS:
        raise InvalidParameterError("kind must be one of %s" % (tuple(KINDS),))
    if cfg.model not in MODELS:
        raise InvalidParameterError("model must be one of %s" % (MODELS,))
    if cfg.sampling not in ("bernoulli", "uniform"):
        raise InvalidParameterError("sampling must be bernoulli or uniform")
    # a trial index is 21 bits of _stream and moments derive substream(t + 1)
    if not 1 <= cfg.trials < 1 << 20:
        raise InvalidParameterError("trials must lie in [1, 2**20)")
    if cfg.equiv_p not in ("m", "2m"):
        raise InvalidParameterError("equiv_p must be 'm' or '2m'")
    if not 0.0 < cfg.delta < 1.0:
        raise InvalidParameterError("delta must lie in (0, 1)")
    if cfg.solver_max_iter < 1:
        raise InvalidParameterError("solver_max_iter must be >= 1")
    if cfg.threads != 1:
        raise InvalidParameterError("threads must be 1: cells run in order")
    axes = KINDS[cfg.kind][0]
    for axis in axes + ("mu0_grid",):  # every kind reads mu0_grid[0] or each mu0
        if not getattr(cfg, axis):
            raise InvalidParameterError("%s must be nonempty for kind=%s"
                                        % (axis, cfg.kind))
    for n in cfg.n_grid:
        if not all(1 <= r <= n for r in cfg.r_grid):
            raise InvalidParameterError("r_grid %s out of range for n=%d"
                                        % (cfg.r_grid, n))
        if "m_grid" in axes and not all(1 <= m <= n * n for m in cfg.m_grid):
            raise InvalidParameterError("m_grid %s out of range for n=%d"
                                        % (cfg.m_grid, n))
    if "p_grid" in axes and not all(0.0 < p <= 1.0 for p in cfg.p_grid):
        raise InvalidParameterError("p must lie in (0, 1]")
    if cfg.kind == "cert" and cfg.cert_method not in CERT_METHODS:
        raise InvalidParameterError("cert_method must be one of %s" % (tuple(CERT_METHODS),))
    if cfg.kind == "moments" and cfg.trials < 2:
        raise InvalidParameterError("moments need trials >= 2")
    # each model's draw-free rules on every (n, r, mu0) a cell draws, before
    # any cell runs: lower draws blocks at each mu0, the rest cfg.model at mu0_grid[0]
    model = "block" if cfg.kind == "lower" else cfg.model
    mu0s = cfg.mu0_grid if cfg.kind == "lower" else cfg.mu0_grid[:1]
    for n, r in product(cfg.n_grid, cfg.r_grid):
        if model == "block":
            for mu0 in mu0s:
                block_model_spec(n, r, mu0)
        elif model == "uniform_bounded":
            _check_hadamard_order(n)
        elif model == "low_coherence":
            _check_low_coherence(n, r, cfg.mu_b_cap)


@dataclass
class ExperimentRow:
    """One grid cell of one run kind.  None marks a column that does not
    apply; emit() renders it as an empty field."""

    kind: str
    model: str
    sampling: str
    n: int
    r: int
    m: int
    p: float
    trials: int
    successes: int
    success_rate: float
    wilson_lo: float
    wilson_hi: float
    mean_relerr: float | None = None
    mean_a_stat: float | None = None
    mean_ptperp: float | None = None
    mean_mu0: float | None = None
    mean_mu1: float | None = None
    mean_mu2: float | None = None
    mu0_target: float | None = None
    ell: int | None = None
    delta: float | None = None
    pi0: float | None = None
    pi1: float | None = None
    prob_closed: float | None = None
    prob_empirical: float | None = None
    m_star: float | None = None
    below_m_star: int | None = None
    p_ber: float | None = None
    fail_unif: float | None = None
    fail_ber: float | None = None
    fail_ratio: float | None = None
    se_pooled: float | None = None
    j: int | None = None
    k: int | None = None
    moment_mean: float | None = None
    moment_se: float | None = None
    moment_bound_power: float | None = None
    moment_bound_poly: float | None = None
    moment_closed: float | None = None
    wall_ms: float = 0.0


FIELDS = tuple(f.name for f in fields(ExperimentRow))
# column name -> str, int or float: the annotation, or X of an 'X | None'
_COLUMN_TYPES = {name: (typing.get_args(hint) or (hint,))[0]
                 for name, hint in typing.get_type_hints(ExperimentRow).items()}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise InvalidParameterError("successes must lie in [0, trials]")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = phat + z * z / (2.0 * trials)
    half = z * np.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    # the endpoints are algebraically exact at the degenerate counts;
    # spare them the roundoff of the general expression
    lo = 0.0 if successes == 0 else (center - half) / denom
    hi = 1.0 if successes == trials else (center + half) / denom
    return float(max(lo, 0.0)), float(min(hi, 1.0))


def _stream(cell_idx: int, trial: int, slot: int) -> int:
    return cell_idx * (1 << 24) + trial * 8 + slot


def gen_ground_truth(model: str, n: int, r: int, rng: Rng, mu0: float,
                     mu_b_cap: float, sigma=None):
    """Draw one ground truth of the named model (one of MODELS).

    mu0 is the block model's coherence target and mu_b_cap the
    low-coherence model's flatness cap; each other model ignores both.
    """
    if model == "random_orth":
        return gen_random_orthogonal(n, r, rng, sigma=sigma)
    if model == "uniform_bounded":
        return gen_uniformly_bounded(hadamard_family(n), r, rng, sigma=sigma)
    if model == "low_coherence":
        return gen_low_coherence(n, r, rng, mu_b_cap=mu_b_cap, sigma=sigma)
    if model == "block":
        return gen_lower_bound_block(block_model_spec(n, r, mu0), rng, sigma=sigma)
    raise InvalidParameterError("unknown model %r" % model)


def _solver_params(cfg: ExperimentConfig, n: int, r: int) -> SolverParams:
    return SolverParams(max_iter=cfg.solver_max_iter, rank_cap=min(n, 4 * r + 10))


def _draw(cfg: ExperimentConfig, idx: int, t: int, n: int, r: int, m: int,
          sampling: str):
    """Ground truth and observation set of trial t in cell idx.

    Phase, cert and equiv all draw here, from the same two substreams, so
    runs of these kinds with one config see the same instances trial for
    trial.
    """
    gt = gen_ground_truth(cfg.model, n, r, Rng(cfg.seed, _stream(idx, t, _SLOT_MODEL)),
                          cfg.mu0_grid[0], cfg.mu_b_cap)
    rng = Rng(cfg.seed, _stream(idx, t, _SLOT_OMEGA))
    if sampling == "uniform":
        return gt, sample_uniform(n, m, rng)
    return gt, sample_bernoulli(n, m / (n * n), rng)


def _mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


def _mean_mus(reports) -> dict:
    return dict(mean_mu0=_mean([inc.mu0 for inc in reports]),
                mean_mu1=_mean([inc.mu1 for inc in reports]),
                mean_mu2=_mean([inc.mu2 for inc in reports]))


# Each cell function runs one cell's trials and returns that kind's row
# fields: at least m, p and successes, plus any common field the kind sets
# differently from what _run_cell fills in.

def _phase_cell(cfg, idx, n, r, m) -> dict:
    """Recovery rate of the thresholding solver."""
    params = _solver_params(cfg, n, r)
    succ = 0
    relerrs, incs = [], []
    for t in range(cfg.trials):
        gt, S = _draw(cfg, idx, t, n, r, m, cfg.sampling)
        ok, rel = recovered(gt.M, complete(S, gt.M, params).Xhat)
        succ += int(ok)
        relerrs.append(rel)
        incs.append(incoherence(gt.tangent_space()))
    return dict(m=m, p=m / (n * n), successes=succ, mean_relerr=_mean(relerrs),
                **_mean_mus(incs))


def _cert_cell(cfg, idx, n, r, m) -> dict:
    """Certificate success, trial for trial on phase's instances."""
    succ = 0
    a_stats, ptperps, incs = [], [], []
    for t in range(cfg.trials):
        gt, S = _draw(cfg, idx, t, n, r, m, cfg.sampling)
        T = gt.tangent_space()
        rep = try_build_certificate(T, S, method=cfg.cert_method)
        succ += int(verify_certificate(T, S, rep))
        a_stats.append(rep.a_stat)
        if rep.failure is None:  # a refused build has no Y to measure
            ptperps.append(rep.ptperp_norm)
        incs.append(incoherence(T))
    return dict(m=m, p=m / (n * n), successes=succ, mean_a_stat=_mean(a_stats),
                mean_ptperp=_mean(ptperps), **_mean_mus(incs))


def _lower_cell(cfg, idx, n, r, mu0, p) -> dict:
    """Block coverage against the closed-form failure law.

    A trial 'fails' when some in-block row or column receives no sample
    inside its block, leaving a factor row free and the matrix
    undeterminable.  The closed-form reference treats the n coverage
    events as independent: 1 - (1 - pi1)^n with pi1 = (1-p)^ell.  Trials
    run in chunks: a chunk's generators are seeded in one pass, its masks
    drawn into one stack, and tested for coverage all at once.  The blocks
    occupy the leading r * ell rows, so only those rows of each n x n mask
    are drawn: the prefix of the trial's stream, the same bits as the full
    draw's leading rows.
    """
    bspec = block_model_spec(n, r, mu0)
    shape = (r * bspec.ell, n)  # the leading rows, where the blocks lie
    covered = 0
    for chunk in _chunks(cfg.trials, shape[0] * n):  # one boolean mask a trial
        rngs = Rng.batch(cfg.seed, [_stream(idx, t, _SLOT_OMEGA) for t in chunk])
        mask = _bernoulli_masks(rngs, p, shape)
        ok = np.ones(len(chunk), dtype=bool)
        for lo, hi in bspec.blocks:
            sub = mask[:, lo:hi, lo:hi]
            ok &= sub.any(axis=2).all(axis=1) & sub.any(axis=1).all(axis=1)
        covered += int(np.count_nonzero(ok))
    pi1 = (1.0 - p) ** bspec.ell
    m = int(round(p * n * n))
    m_star = n * n * (1.0 - (n / (2.0 * cfg.delta)) ** (-mu0 * r / n))
    return dict(model="block", sampling="bernoulli", m=m, p=p, successes=covered,
                mu0_target=mu0, ell=bspec.ell, delta=cfg.delta,
                pi0=(1.0 - p) ** n, pi1=pi1, prob_closed=1.0 - (1.0 - pi1) ** n,
                prob_empirical=1.0 - covered / cfg.trials, m_star=m_star,
                below_m_star=int(m < m_star))


def _recovers(gt, T, S, params) -> bool:
    """Whether SVT recovers gt.M from S; no solve when decide refutes M.

    A refuted M is not a nuclear-norm minimizer, so no certificate of norm
    <= 1 exists.  SVT's regularized optimum is not M either: for r = 1,
    M = sigma E at that optimum would make its scaled multiplier a
    certificate of norm tau / (tau + sigma) < 1.  The argument needs only
    the refutation, so it holds for every exit of decide, the primal
    exit's included.  The tests replay the skip against full solves for
    r = 1 and 2.
    """
    if decide(T, S).verdict == "refuted":
        return False
    return recovered(gt.M, complete(S, gt.M, params).Xhat)[0]


def _equiv_cell(cfg, idx, n, r, m) -> dict:
    """Uniform-m vs Bernoulli failure rates on shared ground truths.

    equiv_p chooses the Bernoulli rate: 'm' for p = m/n^2, the rate at
    which the sampling-equivalence lemma bounds uniform failure by twice
    the Bernoulli failure, or '2m' for the doubled rate, where monotonicity
    in Omega gives the reverse: fail_ber(2m) <= fail_unif(m) + P(|Omega| < m).
    The Wilson interval is the uniform failure rate's.
    """
    p_ber = min(1.0, (m if cfg.equiv_p == "m" else 2 * m) / (n * n))
    params = _solver_params(cfg, n, r)
    fail_u = 0
    fail_b = 0
    for t in range(cfg.trials):
        gt, s_unif = _draw(cfg, idx, t, n, r, m, "uniform")
        s_ber = sample_bernoulli(n, p_ber, Rng(cfg.seed, _stream(idx, t, _SLOT_OMEGA2)))
        T = gt.tangent_space()
        fail_u += int(not _recovers(gt, T, s_unif, params))
        fail_b += int(not _recovers(gt, T, s_ber, params))
    tr = cfg.trials
    rate_u = fail_u / tr
    rate_b = fail_b / tr
    lo, hi = wilson_interval(fail_u, tr)
    return dict(sampling="uniform", m=m, p=m / (n * n), successes=tr - fail_u,
                success_rate=1.0 - rate_u, wilson_lo=lo, wilson_hi=hi,
                p_ber=p_ber, fail_unif=rate_u, fail_ber=rate_b,
                fail_ratio=rate_u / max(rate_b, 0.5 / tr),
                se_pooled=float(np.sqrt(rate_u * (1 - rate_u) / tr
                                        + 4.0 * rate_b * (1 - rate_b) / tr)))


def _moments_cell(cfg, idx, n, r, p, j, k) -> dict:
    """Monte-Carlo trace moments of the tangent chains vs their bounds."""
    gen = partial(gen_ground_truth, cfg.model, mu0=cfg.mu0_grid[0],
                  mu_b_cap=cfg.mu_b_cap)
    est = estimate_trace_moment(gen, n, r, p, j, k, cfg.trials,
                                rng=Rng(cfg.seed, _stream(idx, 0, _SLOT_MODEL)))
    return dict(sampling="bernoulli", m=int(round(p * n * n)), p=p, successes=0,
                wilson_lo=0.0, wilson_hi=0.0, j=j, k=k, moment_mean=est.mean,
                moment_se=est.stderr, moment_bound_power=est.bound_power,
                moment_bound_poly=est.bound_poly, moment_closed=est.closed_form)


# kind -> (grid axes, outermost first; cell function; help line).  A kind's
# cells are the sorted product of its axes, which always start with n_grid,
# r_grid.  The command line has one subcommand per entry.
KINDS = {
    "phase": (("n_grid", "r_grid", "m_grid"), _phase_cell,
              "solver recovery-rate sweep"),
    "cert": (("n_grid", "r_grid", "m_grid"), _cert_cell, "dual-certificate sweep"),
    "lower": (("n_grid", "r_grid", "mu0_grid", "p_grid"), _lower_cell,
              "block-coverage lower-bound experiment"),
    "equiv": (("n_grid", "r_grid", "m_grid"), _equiv_cell,
              "uniform vs Bernoulli sampling comparison"),
    "moments": (("n_grid", "r_grid", "p_grid", "j_grid", "k_grid"), _moments_cell,
                "trace-moment Monte Carlo"),
}


def _run_cell(cfg: ExperimentConfig, cell_fn, idx: int, cell) -> ExperimentRow:
    t0 = time.perf_counter()
    fields = cell_fn(cfg, idx, *cell)
    succ = fields["successes"]
    lo, hi = wilson_interval(succ, cfg.trials)
    row = dict(kind=cfg.kind, model=cfg.model, sampling=cfg.sampling, n=cell[0],
               r=cell[1], trials=cfg.trials, success_rate=succ / cfg.trials,
               wilson_lo=lo, wilson_hi=hi)
    row.update(fields)
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3 if cfg.record_timing else 0.0
    return ExperimentRow(**row)


def run(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Run the sweep of cfg.kind: one row per grid cell, in sorted cell order."""
    _validate(cfg)
    axes, cell_fn, _ = KINDS[cfg.kind]
    cells = product(*(sorted(getattr(cfg, axis)) for axis in axes))
    return [_run_cell(cfg, cell_fn, idx, cell) for idx, cell in enumerate(cells)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def rows_to_csv(rows) -> str:
    out = [",".join(FIELDS)]
    for row in rows:
        out.append(",".join(_fmt(getattr(row, name)) for name in FIELDS))
    return "\n".join(out) + "\n"


def rows_from_csv(text: str) -> list[ExperimentRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameterError("empty CSV")
    header = tuple(lines[0].split(","))
    if header != FIELDS:
        raise InvalidParameterError("CSV header does not match the frozen schema")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(FIELDS):
            raise InvalidParameterError("row has %d fields, want %d"
                                        % (len(parts), len(FIELDS)))
        kw = {}
        for name, part in zip(FIELDS, parts):
            parse = _COLUMN_TYPES[name]
            try:
                kw[name] = None if part == "" and parse is not str else parse(part)
            except ValueError:
                raise InvalidParameterError("bad value for column %s: %r"
                                            % (name, part)) from None
        rows.append(ExperimentRow(**kw))
    return rows


def emit(rows, path: str) -> None:
    """Write rows to path as CSV.  Refuses empty input."""
    if not rows:
        raise InvalidParameterError("no rows to emit")
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))
