"""Experiment drivers with a frozen CSV schema.

Every run kind (phase sweep, certificate sweep, coverage lower bound,
sampling-model equivalence, trace moments) emits the same wide row type;
columns that do not apply to a kind stay empty.  Rows come out in sorted
cell order and all randomness is derived from (seed, cell index, trial,
slot), so reruns of the same config are byte-identical -- including across
thread counts, since threading only distributes whole cells.

Paired designs fall out of the stream layout: a phase run and a
certificate run with the same config see the same ground truths and the
same observation sets trial for trial.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .certificate import (
    estimate_trace_moment,
    try_build_certificate,
    verify_certificate,
)
from .errors import InvalidParameterError
from .geometry import incoherence
from .linalg import Rng
from .models import (
    block_model_spec,
    gen_lower_bound_block,
    gen_low_coherence,
    gen_random_orthogonal,
    gen_uniformly_bounded,
    hadamard_family,
)
from .sampling import sample_bernoulli, sample_uniform
from .solver import SolverParams, complete, recovered

_WILSON_Z = 1.959963984540054  # two-sided 95%

# substream slots within a trial; slot 2 is unused, and the numbering is
# kept so that existing configs and seeds reproduce the same draws
_SLOT_MODEL = 0
_SLOT_OMEGA = 1
_SLOT_OMEGA2 = 3

_KINDS = ("phase", "cert", "lower", "equiv", "moments")
_MODELS = ("random_orth", "uniform_bounded", "low_coherence", "block")


@dataclass
class ExperimentConfig:
    """Flat configuration shared by all run kinds.

    Grid fields are tuples; runners use the ones relevant to their kind
    (m_grid for phase/cert/equiv, p_grid for lower/moments, j_grid and
    k_grid for moments, mu0_grid for lower and the block model).
    solver_rank_cap: -1 derives min(n, 4r + 10) per cell, 0 disables the
    cap, positive values are used as given.
    """

    kind: str = ""
    model: str = "random_orth"
    sampling: str = "bernoulli"
    n_grid: tuple = (32,)
    r_grid: tuple = (2,)
    m_grid: tuple = ()
    p_grid: tuple = ()
    mu0_grid: tuple = (2.0,)
    j_grid: tuple = (1,)
    k_grid: tuple = (0,)
    trials: int = 50
    seed: int = 0
    delta: float = 0.05
    mu_b_cap: float = 6.0
    cert_method: str = "neumann"
    cert_kmax: int = 100
    cert_tol: float = 1e-6
    recover_tol: float = 1e-4
    solver_step: float = 1.2
    solver_tol_feas: float = 1e-6
    solver_tol_obj: float = 1e-9
    solver_max_iter: int = 3000
    solver_rank_cap: int = -1
    equiv_p: str = "m"
    record_timing: int = 0
    threads: int = 1
    out: str = ""
    format: str = "csv"


_INT_KEYS = {"trials", "seed", "cert_kmax", "solver_max_iter", "solver_rank_cap",
             "record_timing", "threads"}
_FLOAT_KEYS = {"delta", "mu_b_cap", "cert_tol", "recover_tol", "solver_step",
               "solver_tol_feas", "solver_tol_obj"}
_STR_KEYS = {"kind", "model", "sampling", "cert_method", "equiv_p", "out", "format"}
_INT_GRIDS = {"n_grid", "r_grid", "m_grid", "j_grid", "k_grid"}
_FLOAT_GRIDS = {"p_grid", "mu0_grid"}


def _coerce(key: str, value: str):
    value = value.strip()
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _STR_KEYS:
            return value
        if key in _INT_GRIDS:
            return tuple(int(v) for v in value.split(",") if v.strip())
        if key in _FLOAT_GRIDS:
            return tuple(float(v) for v in value.split(",") if v.strip())
    except ValueError as exc:
        raise InvalidParameterError("bad value for %s: %r" % (key, value)) from exc
    raise InvalidParameterError("unknown config key %r" % key)


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse 'key=value' lines ('#' comments and blanks ignored)."""
    cfg = ExperimentConfig() if base is None else base
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError("expected key=value, got %r" % raw)
        key, value = line.split("=", 1)
        key = key.strip()
        setattr(cfg, key, _coerce(key, value))
    return cfg


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply --set key=value overrides on top of a parsed config."""
    for pair in pairs:
        if "=" not in pair:
            raise InvalidParameterError("override must be key=value, got %r" % pair)
        key, value = pair.split("=", 1)
        setattr(cfg, key.strip(), _coerce(key.strip(), value))
    return cfg


def _validate(cfg: ExperimentConfig):
    if cfg.kind not in _KINDS:
        raise InvalidParameterError("kind must be one of %s" % (_KINDS,))
    if cfg.model not in _MODELS:
        raise InvalidParameterError("model must be one of %s" % (_MODELS,))
    if cfg.sampling not in ("bernoulli", "uniform"):
        raise InvalidParameterError("sampling must be bernoulli or uniform")
    if cfg.trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if cfg.equiv_p not in ("m", "2m"):
        raise InvalidParameterError("equiv_p must be 'm' or '2m'")
    if cfg.threads < 1:
        raise InvalidParameterError("threads must be >= 1")
    if not cfg.n_grid or not cfg.r_grid:
        raise InvalidParameterError("n_grid and r_grid must be nonempty")


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
_INT_FIELDS = {"n", "r", "m", "trials", "successes", "ell", "below_m_star", "j", "k"}
_STR_FIELDS = {"kind", "model", "sampling"}


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
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


def _gen_instance(cfg: ExperimentConfig, n: int, r: int, rng: Rng):
    if cfg.model == "random_orth":
        return gen_random_orthogonal(n, r, rng)
    if cfg.model == "uniform_bounded":
        fam = hadamard_family(n)
        return gen_uniformly_bounded(fam, fam, r, rng)
    if cfg.model == "low_coherence":
        return gen_low_coherence(n, r, rng, mu_b_cap=cfg.mu_b_cap)
    if cfg.model == "block":
        bspec = block_model_spec(n, r, cfg.mu0_grid[0])
        return gen_lower_bound_block(bspec, rng)
    raise InvalidParameterError("unknown model %r" % cfg.model)


def _solver_params(cfg: ExperimentConfig, n: int, r: int) -> SolverParams:
    if cfg.solver_rank_cap < 0:
        cap = min(n, 4 * r + 10)
    elif cfg.solver_rank_cap == 0:
        cap = None
    else:
        cap = cfg.solver_rank_cap
    return SolverParams(step=cfg.solver_step, tol_feas=cfg.solver_tol_feas,
                        tol_obj=cfg.solver_tol_obj, max_iter=cfg.solver_max_iter,
                        rank_cap=cap)


def _sample(cfg: ExperimentConfig, n: int, m: int, rng: Rng):
    if cfg.sampling == "uniform":
        return sample_uniform(n, m, rng)
    return sample_bernoulli(n, m / (n * n), rng)


def _mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


def _run_cells(cfg: ExperimentConfig, cells, worker) -> list:
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(worker, idx, cell) for idx, cell in enumerate(cells)]
            return [f.result() for f in futures]
    return [worker(idx, cell) for idx, cell in enumerate(cells)]


def _pc_cells(cfg: ExperimentConfig) -> list:
    if not cfg.m_grid:
        raise InvalidParameterError("m_grid must be nonempty for this kind")
    cells = list(product(sorted(cfg.n_grid), sorted(cfg.r_grid), sorted(cfg.m_grid)))
    for n, r, m in cells:
        if not (1 <= m <= n * n):
            raise InvalidParameterError("cell m=%d out of range for n=%d" % (m, n))
        if not (1 <= r <= n):
            raise InvalidParameterError("cell r=%d out of range for n=%d" % (r, n))
    return cells


def run_phase(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Recovery-rate sweep of the thresholding solver over (n, r, m)."""
    cfg.kind = cfg.kind or "phase"
    _validate(cfg)
    cells = _pc_cells(cfg)

    def worker(idx, cell):
        n, r, m = cell
        t0 = time.perf_counter()
        succ = 0
        relerrs = []
        mu0s, mu1s, mu2s = [], [], []
        params = _solver_params(cfg, n, r)
        for t in range(cfg.trials):
            gt = _gen_instance(cfg, n, r, Rng(cfg.seed, _stream(idx, t, _SLOT_MODEL)))
            S = _sample(cfg, n, m, Rng(cfg.seed, _stream(idx, t, _SLOT_OMEGA)))
            res = complete(S, gt.M, params)
            ok, rel = recovered(gt.M, res.Xhat, tol=cfg.recover_tol)
            succ += int(ok)
            relerrs.append(rel)
            inc = incoherence(gt.tangent_space())
            mu0s.append(inc.mu0)
            mu1s.append(inc.mu1)
            mu2s.append(inc.mu2)
        lo, hi = wilson_interval(succ, cfg.trials)
        wall = (time.perf_counter() - t0) * 1e3 if cfg.record_timing else 0.0
        return ExperimentRow(
            kind="phase", model=cfg.model, sampling=cfg.sampling, n=n, r=r, m=m,
            p=m / (n * n), trials=cfg.trials, successes=succ,
            success_rate=succ / cfg.trials, wilson_lo=lo, wilson_hi=hi,
            mean_relerr=_mean(relerrs), mean_mu0=_mean(mu0s),
            mean_mu1=_mean(mu1s), mean_mu2=_mean(mu2s), wall_ms=wall,
        )

    return _run_cells(cfg, cells, worker)


def run_certificate(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Certificate-success sweep; paired with run_phase via shared streams."""
    cfg.kind = cfg.kind or "cert"
    _validate(cfg)
    if cfg.cert_method not in ("neumann", "cg"):
        raise InvalidParameterError("cert_method must be neumann or cg")
    cells = _pc_cells(cfg)

    def worker(idx, cell):
        n, r, m = cell
        t0 = time.perf_counter()
        succ = 0
        a_stats, ptperps = [], []
        mu0s, mu1s, mu2s = [], [], []
        for t in range(cfg.trials):
            gt = _gen_instance(cfg, n, r, Rng(cfg.seed, _stream(idx, t, _SLOT_MODEL)))
            S = _sample(cfg, n, m, Rng(cfg.seed, _stream(idx, t, _SLOT_OMEGA)))
            T = gt.tangent_space()
            kw = {"k_max": cfg.cert_kmax} if cfg.cert_method == "neumann" else {}
            rep = try_build_certificate(T, S, method=cfg.cert_method, **kw)
            succ += int(verify_certificate(T, S, rep, tol=cfg.cert_tol))
            a_stats.append(rep.a_stat)
            ptperps.append(rep.ptperp_norm)
            inc = incoherence(T)
            mu0s.append(inc.mu0)
            mu1s.append(inc.mu1)
            mu2s.append(inc.mu2)
        lo, hi = wilson_interval(succ, cfg.trials)
        wall = (time.perf_counter() - t0) * 1e3 if cfg.record_timing else 0.0
        return ExperimentRow(
            kind="cert", model=cfg.model, sampling=cfg.sampling, n=n, r=r, m=m,
            p=m / (n * n), trials=cfg.trials, successes=succ,
            success_rate=succ / cfg.trials, wilson_lo=lo, wilson_hi=hi,
            mean_a_stat=_mean(a_stats), mean_ptperp=_mean(ptperps),
            mean_mu0=_mean(mu0s), mean_mu1=_mean(mu1s), mean_mu2=_mean(mu2s),
            wall_ms=wall,
        )

    return _run_cells(cfg, cells, worker)


def run_lower_bound(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Block-coverage experiment against the closed-form failure law.

    A trial 'fails' when some in-block row or column receives no sample
    inside its block, leaving a factor row free and the matrix
    undeterminable.  The closed-form reference treats the n coverage
    events as independent: 1 - (1 - pi1)^n with pi1 = (1-p)^ell.
    """
    cfg.kind = cfg.kind or "lower"
    _validate(cfg)
    if not cfg.p_grid:
        raise InvalidParameterError("p_grid must be nonempty for kind=lower")
    cells = []
    for n in sorted(cfg.n_grid):
        for r in sorted(cfg.r_grid):
            for mu0 in sorted(cfg.mu0_grid):
                for p in sorted(cfg.p_grid):
                    if not (0.0 < p <= 1.0):
                        raise InvalidParameterError("p must lie in (0, 1]")
                    cells.append((n, r, mu0, p))

    def worker(idx, cell):
        n, r, mu0, p = cell
        t0 = time.perf_counter()
        bspec = block_model_spec(n, r, mu0)
        ell = bspec.ell
        covered = 0
        for t in range(cfg.trials):
            S = sample_bernoulli(n, p, Rng(cfg.seed, _stream(idx, t, _SLOT_OMEGA)))
            ok = True
            for lo_b, hi_b in bspec.blocks:
                sub = S.mask[lo_b:hi_b, lo_b:hi_b]
                if not (sub.any(axis=1).all() and sub.any(axis=0).all()):
                    ok = False
                    break
            covered += int(ok)
        pi1 = (1.0 - p) ** ell
        pi0 = (1.0 - p) ** n
        prob_closed = 1.0 - (1.0 - pi1) ** n
        prob_empirical = 1.0 - covered / cfg.trials
        m = int(round(p * n * n))
        m_star = n * n * (1.0 - (n / (2.0 * cfg.delta)) ** (-mu0 * r / n))
        lo, hi = wilson_interval(covered, cfg.trials)
        wall = (time.perf_counter() - t0) * 1e3 if cfg.record_timing else 0.0
        return ExperimentRow(
            kind="lower", model="block", sampling="bernoulli", n=n, r=r, m=m,
            p=p, trials=cfg.trials, successes=covered,
            success_rate=covered / cfg.trials, wilson_lo=lo, wilson_hi=hi,
            mu0_target=mu0, ell=ell, delta=cfg.delta, pi0=pi0, pi1=pi1,
            prob_closed=prob_closed, prob_empirical=prob_empirical,
            m_star=m_star, below_m_star=int(m < m_star), wall_ms=wall,
        )

    return _run_cells(cfg, cells, worker)


def run_model_equiv(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Uniform-m vs Bernoulli failure rates on shared ground truths.

    equiv_p chooses the Bernoulli rate: 'm' for p = m/n^2, '2m' for the
    doubled rate that upper-bounds uniform failure from the other side.
    """
    cfg.kind = cfg.kind or "equiv"
    _validate(cfg)
    cells = _pc_cells(cfg)

    def worker(idx, cell):
        n, r, m = cell
        t0 = time.perf_counter()
        p_ber = min(1.0, (m if cfg.equiv_p == "m" else 2 * m) / (n * n))
        params = _solver_params(cfg, n, r)
        fail_u = 0
        fail_b = 0
        for t in range(cfg.trials):
            gt = _gen_instance(cfg, n, r, Rng(cfg.seed, _stream(idx, t, _SLOT_MODEL)))
            s_unif = sample_uniform(n, m, Rng(cfg.seed, _stream(idx, t, _SLOT_OMEGA)))
            s_ber = sample_bernoulli(n, p_ber, Rng(cfg.seed, _stream(idx, t, _SLOT_OMEGA2)))
            ok_u, _ = recovered(gt.M, complete(s_unif, gt.M, params).Xhat,
                                tol=cfg.recover_tol)
            ok_b, _ = recovered(gt.M, complete(s_ber, gt.M, params).Xhat,
                                tol=cfg.recover_tol)
            fail_u += int(not ok_u)
            fail_b += int(not ok_b)
        tr = cfg.trials
        rate_u = fail_u / tr
        rate_b = fail_b / tr
        ratio = rate_u / max(rate_b, 0.5 / tr)
        se = float(np.sqrt(rate_u * (1 - rate_u) / tr + 4.0 * rate_b * (1 - rate_b) / tr))
        lo, hi = wilson_interval(fail_u, tr)
        wall = (time.perf_counter() - t0) * 1e3 if cfg.record_timing else 0.0
        return ExperimentRow(
            kind="equiv", model=cfg.model, sampling="uniform", n=n, r=r, m=m,
            p=m / (n * n), trials=tr, successes=tr - fail_u,
            success_rate=1.0 - rate_u, wilson_lo=lo, wilson_hi=hi,
            p_ber=p_ber, fail_unif=rate_u, fail_ber=rate_b, fail_ratio=ratio,
            se_pooled=se, wall_ms=wall,
        )

    return _run_cells(cfg, cells, worker)


def run_moments(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Monte-Carlo trace moments of the tangent chains vs their bounds."""
    cfg.kind = cfg.kind or "moments"
    _validate(cfg)
    if not cfg.p_grid:
        raise InvalidParameterError("p_grid must be nonempty for kind=moments")
    if cfg.trials < 2:
        raise InvalidParameterError("moments need trials >= 2")
    cells = []
    for n in sorted(cfg.n_grid):
        for r in sorted(cfg.r_grid):
            for p in sorted(cfg.p_grid):
                for j in sorted(cfg.j_grid):
                    for k in sorted(cfg.k_grid):
                        cells.append((n, r, p, j, k))

    def gen(n, r, rng):
        return _gen_instance(cfg, n, r, rng)

    def worker(idx, cell):
        n, r, p, j, k = cell
        t0 = time.perf_counter()
        est = estimate_trace_moment(gen, n, r, p, j, k, cfg.trials,
                                    rng=Rng(cfg.seed, _stream(idx, 0, _SLOT_MODEL)))
        wall = (time.perf_counter() - t0) * 1e3 if cfg.record_timing else 0.0
        return ExperimentRow(
            kind="moments", model=cfg.model, sampling="bernoulli", n=n, r=r,
            m=int(round(p * n * n)), p=p, trials=cfg.trials, successes=0,
            success_rate=0.0, wilson_lo=0.0, wilson_hi=0.0,
            j=j, k=k, moment_mean=est.mean, moment_se=est.stderr,
            moment_bound_power=est.bound_power, moment_bound_poly=est.bound_poly,
            moment_closed=est.closed_form, wall_ms=wall,
        )

    return _run_cells(cfg, cells, worker)


def run(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """Dispatch on cfg.kind."""
    _validate(cfg)
    runner = {
        "phase": run_phase,
        "cert": run_certificate,
        "lower": run_lower_bound,
        "equiv": run_model_equiv,
        "moments": run_moments,
    }[cfg.kind]
    return runner(cfg)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
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
            if name in _STR_FIELDS:
                kw[name] = part
            elif part == "":
                kw[name] = None
            elif name in _INT_FIELDS:
                kw[name] = int(part)
            else:
                kw[name] = float(part)
        rows.append(ExperimentRow(**kw))
    return rows


def _svg_scatter(rows) -> str:
    """Self-contained scatter of success_rate against m (or p), one series
    color per (n, r)."""
    width, height, margin = 640, 420, 50
    xs = [row.m if row.m else row.p for row in rows]
    ys = [row.success_rate for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    series = sorted({(row.n, row.r) for row in rows})
    color = {key: palette[i % len(palette)] for i, key in enumerate(series)}

    def sx(x):
        return margin + (width - 2 * margin) * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return height - margin - (height - 2 * margin) * y

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (margin, height - margin, width - margin, height - margin),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (margin, margin, margin, height - margin),
        '<text x="%g" y="%g" font-size="12">m</text>' % (width - margin, height - margin + 30),
        '<text x="%g" y="%g" font-size="12">success rate</text>' % (5, margin - 20),
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append('<text x="%g" y="%g" font-size="10">%.1f</text>'
                     % (margin - 30, sy(frac) + 4, frac))
    for row, x, y in zip(rows, xs, ys):
        parts.append('<circle cx="%.2f" cy="%.2f" r="4" fill="%s"/>'
                     % (sx(x), sy(y), color[(row.n, row.r)]))
    for i, key in enumerate(series):
        parts.append('<text x="%g" y="%g" font-size="11" fill="%s">n=%d r=%d</text>'
                     % (width - margin - 110, margin + 16 * i, color[key], key[0], key[1]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(rows, path: str, fmt: str = "csv") -> None:
    """Write rows to path as CSV or a scatter SVG.  Refuses empty input."""
    if not rows:
        raise InvalidParameterError("no rows to emit")
    if fmt == "csv":
        payload = rows_to_csv(rows)
    elif fmt == "svg":
        payload = _svg_scatter(rows)
    else:
        raise InvalidParameterError("format must be csv or svg")
    with open(path, "w") as fh:
        fh.write(payload)
