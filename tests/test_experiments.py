"""Experiment drivers: config parsing, the frozen CSV schema, determinism,
and per-kind row semantics."""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mclab.experiments as experiments
from mclab.errors import InvalidParameterError
from mclab.experiments import (
    FIELDS,
    MODELS,
    ExperimentConfig,
    apply_overrides,
    emit,
    parse_config,
    rows_from_csv,
    rows_to_csv,
    run,
    wilson_interval,
)
from mclab.linalg import Rng
from mclab.models import block_model_spec
from mclab.sampling import _chunks, sample_bernoulli

GOLDEN_DIR = Path(__file__).parent / "golden"

# One small config per run kind.  Each entry but phase is pinned byte for
# byte by GOLDEN_DIR/<name>.csv (phase by phase_2x2.csv in the acceptance
# gate); together the goldens cover all four models and both samplers.
# Regenerate them with the README procedure.
KIND_CONFIGS = {
    "phase": dict(kind="phase", n_grid=(8,), r_grid=(1,), m_grid=(40, 64),
                  model="random_orth", trials=5, seed=11),
    "cert_neumann": dict(kind="cert", cert_method="neumann", n_grid=(10,),
                         r_grid=(1,), m_grid=(50, 80), trials=3, seed=5),
    "cert_cg": dict(kind="cert", cert_method="cg", model="low_coherence",
                    sampling="uniform", n_grid=(10,), r_grid=(1,),
                    m_grid=(50, 80), trials=3, seed=5),
    "lower": dict(kind="lower", model="block", n_grid=(16,), r_grid=(2,),
                  mu0_grid=(2.0, 4.0), p_grid=(0.2, 0.4), trials=40, seed=9),
    "equiv": dict(kind="equiv", model="uniform_bounded", n_grid=(8,),
                  r_grid=(1,), m_grid=(24, 40), trials=3, equiv_p="2m", seed=13),
    "moments": dict(kind="moments", model="block", n_grid=(8,), r_grid=(1,),
                    p_grid=(0.5,), j_grid=(1, 2), k_grid=(0, 1), trials=4,
                    seed=17),
}


def _phase_cfg(**kw):
    base = dict(kind="phase", n_grid=(8,), r_grid=(1,), m_grid=(64,),
                model="random_orth", trials=5, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config

def test_parse_config_lines_comments_and_grids():
    cfg = parse_config("""
        # sweep
        kind = phase
        n_grid = 16, 32
        p_grid = 0.1,0.25
        trials = 7
        model=low_coherence
    """)
    assert cfg.kind == "phase"
    assert cfg.n_grid == (16, 32)
    assert cfg.p_grid == (0.1, 0.25)
    assert cfg.trials == 7
    assert cfg.model == "low_coherence"
    # untouched keys keep their defaults
    assert cfg.sampling == "bernoulli" and cfg.threads == 1


def test_parse_config_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        parse_config("no_such_key = 3")
    with pytest.raises(InvalidParameterError):
        parse_config("trials = seven")
    with pytest.raises(InvalidParameterError):
        parse_config("just a line without equals")


def test_apply_overrides():
    cfg = _phase_cfg()
    apply_overrides(cfg, ["trials=9", "m_grid=10,20"])
    assert cfg.trials == 9 and cfg.m_grid == (10, 20)
    with pytest.raises(InvalidParameterError):
        apply_overrides(cfg, ["trials"])
    with pytest.raises(InvalidParameterError):
        apply_overrides(cfg, ["bogus=1"])


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                         ids=lambda f: f.name)
def test_every_key_parses_its_default_back(field):
    # the text a config file would hold for the default gives back the
    # default, element types included, through both key=value entry points
    default = field.default
    text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
    for cfg in (parse_config("%s = %s" % (field.name, text)),
                apply_overrides(ExperimentConfig(), ["%s=%s" % (field.name, text)])):
        value = getattr(cfg, field.name)
        assert value == default
        if isinstance(default, tuple):
            assert [type(v) for v in value] == [type(v) for v in default]
        else:
            assert type(value) is type(default)


def test_validation_failures_surface():
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(kind="nope"))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(kind=""))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(model="dense"))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(sampling="poisson"))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(trials=0))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(threads=2))  # cells run in order on one thread
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(n_grid=()))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(m_grid=()))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(m_grid=(100,)))  # m > n^2
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(r_grid=(1, 9)))  # r > n
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(kind="equiv", equiv_p="3m"))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(mu0_grid=()))  # every kind reads mu0_grid[0]


@pytest.mark.parametrize("kw", [
    dict(model="uniform_bounded", n_grid=(8, 12)),  # 12 is no power of two
    dict(model="block", r_grid=(1, 5)),  # floor(8 / (2 * 5)) = 0 rows per block
    dict(model="low_coherence", n_grid=(12,), r_grid=(2, 9)),  # r > 8
    dict(kind="lower", model="block", n_grid=(16,), r_grid=(2,),
         mu0_grid=(2.0, 16.0), p_grid=(0.3,)),  # floor(16 / (16 * 2)) = 0
    # trial 2**21 of cell 0 would draw cell 1's trial-0 streams, and moments
    # derive substream(t + 1)
    dict(trials=1 << 20),
    # NaN passed every range check: a traceback from floor(n / (mu0 r)), and
    # 1000 rejected draws ending in exit 2
    dict(kind="lower", model="block", n_grid=(8,), r_grid=(1,),
         mu0_grid=(float("nan"),), p_grid=(0.5,)),
    dict(model="block", mu0_grid=(float("nan"),)),
    dict(model="low_coherence", mu_b_cap=float("nan")),
    dict(kind="moments", model="low_coherence", p_grid=(0.5,),
         mu_b_cap=float("nan")),
    # a cap below 1, also where decide refutes every side and no solve
    # would run (m = 10 < dim T = 15)
    dict(solver_max_iter=0),
    dict(kind="equiv", m_grid=(10,), trials=2, solver_max_iter=0),
], ids=["uniform_bounded", "block", "low_coherence", "lower", "trials_wrap",
        "lower_mu0_nan", "block_mu0_nan", "mu_b_cap_nan", "moments_mu_b_cap_nan",
        "solver_max_iter", "equiv_all_refuted_solver_max_iter"])
def test_undrawable_cell_is_refused_before_any_cell_runs(monkeypatch, kw):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the config was refused")

    for name in ("complete", "sample_bernoulli", "gen_random_orthogonal",
                 "gen_low_coherence", "gen_lower_bound_block"):
        monkeypatch.setattr(experiments, name, no_cell)
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(**kw))


# ---------------------------------------------------------------- wilson

def test_wilson_interval_reference_value_and_shape():
    lo, hi = wilson_interval(8, 10)
    assert abs(lo - 0.490163) <= 5e-4 and abs(hi - 0.943318) <= 5e-4
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    lo1, hi1 = wilson_interval(2, 10)
    lo2, hi2 = wilson_interval(5, 10)
    assert lo1 < lo2 and hi1 < hi2
    for s in range(11):
        lo, hi = wilson_interval(s, 10)
        assert 0.0 <= lo <= s / 10 <= hi <= 1.0
    for succ, trials in ((0, 0), (7, 5), (-1, 5)):
        with pytest.raises(InvalidParameterError):
            wilson_interval(succ, trials)


# ------------------------------------------------------------ CSV schema

def test_fields_schema_is_frozen():
    assert len(FIELDS) == 40
    assert FIELDS[0] == "kind"
    assert FIELDS[-1] == "wall_ms"
    assert FIELDS.index("success_rate") == 9


def test_csv_round_trip_is_exact():
    rows = run(_phase_cfg(m_grid=(40, 64)))
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == ",".join(FIELDS)
    back = rows_from_csv(text)
    assert back == rows  # dataclass equality, field for field


def test_csv_rejects_malformed_input():
    with pytest.raises(InvalidParameterError):
        rows_from_csv("")
    with pytest.raises(InvalidParameterError):
        rows_from_csv("a,b,c\n1,2,3\n")
    good = rows_to_csv(run(_phase_cfg()))
    header, row = good.splitlines()[:2]
    with pytest.raises(InvalidParameterError):
        rows_from_csv(header + "\n" + row + ",extra\n")


def test_csv_unparsable_value_is_invalid_parameter():
    good = rows_to_csv(run(_phase_cfg()))
    header, row = good.splitlines()[:2]
    parts = row.split(",")
    for col in ("n", "p", "mean_relerr"):
        bad = list(parts)
        bad[FIELDS.index(col)] = "x"
        with pytest.raises(InvalidParameterError):
            rows_from_csv(header + "\n" + ",".join(bad) + "\n")


def test_emit_csv(tmp_path):
    rows = run(_phase_cfg(m_grid=(40, 64)))
    csv_path = tmp_path / "out.csv"
    emit(rows, str(csv_path))
    assert csv_path.read_text() == rows_to_csv(rows)
    with pytest.raises(InvalidParameterError):
        emit([], str(csv_path))


# ---------------------------------------------------------- determinism

def test_reruns_are_byte_identical():
    for name, cfg in KIND_CONFIGS.items():
        a = rows_to_csv(run(ExperimentConfig(**cfg)))
        b = rows_to_csv(run(ExperimentConfig(**cfg)))
        assert a == b, name
        if name != "phase":
            assert a == (GOLDEN_DIR / (name + ".csv")).read_text(), name


def test_phase_and_certificate_runs_share_instances():
    # paired streams: both runners draw the same ground truths per trial,
    # visible through identical incoherence summaries
    base = dict(n_grid=(12,), r_grid=(2,), m_grid=(100,),
                model="random_orth", trials=6, seed=13)
    ph = run(ExperimentConfig(kind="phase", **base))[0]
    ce = run(ExperimentConfig(kind="cert", cert_method="cg", **base))[0]
    assert ph.mean_mu0 == ce.mean_mu0
    assert ph.mean_mu1 == ce.mean_mu1
    assert ph.mean_mu2 == ce.mean_mu2


# ------------------------------------------------------------- run kinds

def test_phase_full_sampling_always_recovers():
    row = run(_phase_cfg(m_grid=(64,)))[0]
    assert row.p == 1.0
    assert row.successes == row.trials and row.success_rate == 1.0
    assert row.mean_relerr <= 1e-6
    assert row.mean_mu0 >= 1.0  # leverage max is at least the average
    assert row.wilson_lo <= 1.0 <= row.wilson_hi
    assert row.wall_ms == 0.0  # timing off by default, keeps bytes frozen


def test_record_timing_fills_only_wall_ms():
    rows = run(_phase_cfg(m_grid=(40, 64)))
    timed = run(_phase_cfg(m_grid=(40, 64), record_timing=1))
    assert all(row.wall_ms > 0.0 for row in timed)
    assert [dataclasses.replace(row, wall_ms=0.0) for row in timed] == rows


def test_phase_success_grows_with_sampling():
    rows = run(_phase_cfg(n_grid=(10,), m_grid=(25, 100), trials=8))
    assert rows[0].m == 25 and rows[1].m == 100
    assert rows[0].success_rate <= rows[1].success_rate
    assert rows[1].success_rate == 1.0


def test_certificate_rows_carry_spectral_fields():
    row = run(ExperimentConfig(
        kind="cert", n_grid=(16,), r_grid=(1,), m_grid=(220,),
        model="random_orth", trials=5, seed=17, cert_method="cg"))[0]
    assert 0.0 < row.mean_a_stat < 1.0
    assert row.mean_ptperp >= 0.0
    assert row.successes >= 4  # dense sampling certifies essentially always
    with pytest.raises(InvalidParameterError):
        run(ExperimentConfig(kind="cert", n_grid=(8,), r_grid=(1,),
                             m_grid=(30,), cert_method="qr"))


def test_cert_mean_ptperp_averages_only_built_certificates(monkeypatch):
    # a refused build has no certificate, so its report's ptperp_norm (None)
    # must stay out of the mean; m=50 refuses one trial of three, m=5 all
    reports = []
    build = experiments.try_build_certificate

    def recorded(*args, **kwargs):
        reports.append(build(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(experiments, "try_build_certificate", recorded)
    cfg = dict(KIND_CONFIGS["cert_cg"], m_grid=(50,))
    row = run(ExperimentConfig(**cfg))[0]
    built = [rep.ptperp_norm for rep in reports if rep.failure is None]
    assert 0 < len(built) < len(reports) == row.trials
    assert row.mean_ptperp == np.mean(built)
    assert row.mean_a_stat == np.mean([rep.a_stat for rep in reports])

    reports.clear()
    row = run(ExperimentConfig(**dict(cfg, m_grid=(5,))))[0]
    assert all(rep.failure is not None for rep in reports)
    assert row.mean_ptperp is None and row.successes == 0
    assert rows_to_csv([row]).splitlines()[1].split(",")[FIELDS.index("mean_ptperp")] == ""


def test_lower_bound_row_algebra():
    cfg = ExperimentConfig(kind="lower", n_grid=(16,), r_grid=(2,),
                           mu0_grid=(2.0,), p_grid=(0.3,), trials=200, seed=19,
                           model="block")
    row = run(cfg)[0]
    assert row.ell == 4  # n / (mu0 * r)
    assert row.pi1 == (1 - 0.3) ** 4
    assert row.pi0 == (1 - 0.3) ** 16
    assert row.prob_closed == 1.0 - (1.0 - row.pi1) ** 16
    assert abs(row.prob_empirical - (1.0 - row.success_rate)) < 1e-12
    assert row.below_m_star == int(row.m < row.m_star)
    with pytest.raises(InvalidParameterError):
        run(ExperimentConfig(kind="lower", n_grid=(16,), r_grid=(2,),
                             p_grid=(), trials=5))
    with pytest.raises(InvalidParameterError):
        run(ExperimentConfig(kind="lower", n_grid=(16,), r_grid=(2,),
                             p_grid=(1.5,), trials=5))


def _covered_trial_by_trial(cfg, idx, n, r, mu0, p):
    """The lower cell's covered count as it ran before chunking: one draw
    and one for/else pass over the blocks per trial."""
    covered = 0
    for t in range(cfg.trials):
        S = sample_bernoulli(n, p, Rng(cfg.seed, experiments._stream(
            idx, t, experiments._SLOT_OMEGA)))
        for lo, hi in block_model_spec(n, r, mu0).blocks:
            sub = S.mask[lo:hi, lo:hi]
            if not (sub.any(axis=1).all() and sub.any(axis=0).all()):
                break
        else:
            covered += 1
    return covered


@pytest.mark.parametrize("n,r,rows_at_mu0_1", [(48, 1, 48), (48, 3, 48), (13, 3, 12)])
def test_chunked_coverage_equals_the_trial_by_trial_loop(n, r, rows_at_mu0_1,
                                                         monkeypatch):
    mu0s, ps = (1.0, 2.5, 4.0), (0.05, 0.15, 0.4)
    # lower draws only the r * ell leading rows, where the blocks lie; at
    # mu0 = 1 they fill n = 48 and stop one short of n = 13
    shapes = [(r * block_model_spec(n, r, mu0).ell, n) for mu0 in mu0s]
    assert shapes[0][0] == rows_at_mu0_1
    chunks = [len(_chunks(1 << 19, h * w)[0]) for h, w in shapes]
    # every config spans three full chunks and a partial one
    trials = 3 * max(chunks) + 1
    assert all(trials % c for c in chunks)
    drawn, masks = [], experiments._bernoulli_masks

    def spied(rngs, p, shape):
        drawn.append((len(rngs), shape))
        return masks(rngs, p, shape)

    monkeypatch.setattr(experiments, "_bernoulli_masks", spied)
    cfg = ExperimentConfig(kind="lower", model="block", n_grid=(n,), r_grid=(r,),
                           mu0_grid=mu0s, p_grid=ps, trials=trials, seed=29)
    rows = run(cfg)
    assert drawn == [(len(c), shape) for shape in shapes for _ in ps
                     for c in _chunks(trials, shape[0] * n)]
    for idx, (mu0, p) in enumerate(itertools.product(mu0s, ps)):
        assert rows[idx].successes == _covered_trial_by_trial(cfg, idx, n, r, mu0, p)
    # the counts spread out, so the oracle is not met trivially
    assert len({row.successes for row in rows}) >= 4
    assert any(0 < row.successes < cfg.trials for row in rows)


@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 2.0, float("nan")])
def test_lower_rejects_delta_outside_the_unit_interval(delta):
    # delta = 0 divided by zero in m_star, and a negative delta made it complex
    with pytest.raises(InvalidParameterError, match="delta"):
        run(ExperimentConfig(kind="lower", model="block", n_grid=(16,), r_grid=(2,),
                             p_grid=(0.3,), trials=5, delta=delta))


def test_model_equiv_rates_and_pooled_se():
    cfg = ExperimentConfig(kind="equiv", n_grid=(10,), r_grid=(1,),
                           m_grid=(80,), model="random_orth", trials=10, seed=23)
    row = run(cfg)[0]
    assert row.p_ber == 80 / 100.0
    se = np.sqrt(row.fail_unif * (1 - row.fail_unif) / 10
                 + 4 * row.fail_ber * (1 - row.fail_ber) / 10)
    assert abs(row.se_pooled - se) <= 1e-12
    assert row.success_rate == 1.0 - row.fail_unif
    cfg2 = ExperimentConfig(kind="equiv", n_grid=(10,), r_grid=(1,),
                            m_grid=(80,), model="random_orth", trials=10,
                            seed=23, equiv_p="2m")
    row2 = run(cfg2)[0]
    assert row2.p_ber == 1.0  # 2m/n^2 capped at one


def _equiv_both_ways(monkeypatch, cfg):
    """CSV of run(cfg) as it is and with SVT run on every side, and the
    (decide verdict, SVT recovered) pair of each side of the second run."""
    fast = rows_to_csv(run(cfg))
    verdicts, outcomes = [], []
    decide, recovered = experiments.decide, experiments.recovered

    def keep_solving(T, S):
        d = decide(T, S)
        verdicts.append(d.verdict)
        return dataclasses.replace(d, verdict="undecided")

    def record(*args, **kw):
        out = recovered(*args, **kw)
        outcomes.append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "decide", keep_solving)
        patch.setattr(experiments, "recovered", record)
        full = rows_to_csv(run(cfg))
    assert len(verdicts) == len(outcomes) == 2 * cfg.trials * len(cfg.m_grid)
    return fast, full, list(zip(verdicts, outcomes))


def test_equiv_skips_svt_only_where_it_fails(monkeypatch):
    # equiv counts a side that decide refutes as failed without solving
    # it; on small cells of every model, with both Bernoulli rates, SVT
    # fails each such side too, so the rows are the same either way
    refuted = 0
    for model in MODELS:
        for r in (1, 2):
            dim = 2 * 8 * r - r * r
            cfg = ExperimentConfig(kind="equiv", model=model, n_grid=(8,),
                                   r_grid=(r,), m_grid=(dim + 2, 2 * dim),
                                   trials=3, seed=61,
                                   equiv_p="m" if r == 1 else "2m")
            fast, full, sides = _equiv_both_ways(monkeypatch, cfg)
            assert fast == full, (model, r)
            assert ("refuted", True) not in sides, (model, r)
            refuted += sum(v == "refuted" for v, _ in sides)
    assert refuted >= 30


def test_equiv_skips_svt_where_the_primal_exit_refutes(monkeypatch):
    # acceptance check 07's trials 0-9, both ways: SVT fails on every side
    # that decide's primal exit refutes, so skipping its solve moves no count
    cfg = ExperimentConfig(kind="equiv", n_grid=(32,), r_grid=(1,),
                           m_grid=(194,), model="random_orth", trials=10,
                           seed=41, equiv_p="2m")
    reasons = []
    decide = experiments.decide

    def record_reason(T, S):
        d = decide(T, S)
        reasons.append(d.reason)
        return d

    monkeypatch.setattr(experiments, "decide", record_reason)
    fast, full, sides = _equiv_both_ways(monkeypatch, cfg)
    assert fast == full
    # the last 2 * trials decisions are the second run's, one per side
    primal = [out for reason, (_, out) in zip(reasons[-len(sides):], sides)
              if reason == "primal"]
    assert len(primal) >= 1
    assert not any(primal)


@pytest.mark.slow
def test_equiv_skips_svt_only_where_it_fails_on_check_07(monkeypatch):
    # all 400 trials of acceptance check 07's cell, both ways
    cfg = ExperimentConfig(kind="equiv", n_grid=(32,), r_grid=(1,),
                           m_grid=(194,), model="random_orth", trials=400,
                           seed=41, equiv_p="2m")
    fast, full, sides = _equiv_both_ways(monkeypatch, cfg)
    assert fast == full
    assert ("refuted", True) not in sides


def test_moments_cells_and_closed_form_column():
    cfg = ExperimentConfig(kind="moments", n_grid=(12,), r_grid=(1,),
                           p_grid=(0.5,), j_grid=(1,), k_grid=(0, 1),
                           model="random_orth", trials=20, seed=29)
    rows = run(cfg)
    assert [row.k for row in rows] == [0, 1]
    assert rows[0].moment_closed == (1 - 0.5) * 1 / 0.5
    assert rows[1].moment_closed is None
    assert all(row.moment_mean >= 0.0 for row in rows)
    assert all(row.moment_bound_poly > 0.0 for row in rows)
    assert all(row.m == round(0.5 * 144) for row in rows)
    with pytest.raises(InvalidParameterError):
        run(ExperimentConfig(kind="moments", n_grid=(12,), r_grid=(1,),
                             p_grid=(0.5,), trials=1))
    with pytest.raises(InvalidParameterError):
        run(ExperimentConfig(kind="moments", n_grid=(12,), r_grid=(1,),
                             p_grid=(), trials=5))


def test_run_dispatches_on_kind():
    rows = run(_phase_cfg())
    assert rows[0].kind == "phase"
    rows = run(ExperimentConfig(kind="lower", n_grid=(8,), r_grid=(1,),
                                mu0_grid=(2.0,), p_grid=(0.5,), trials=20,
                                seed=5, model="block"))
    assert rows[0].kind == "lower"


_IMPORT_PROBE = """
import sys
from mclab.experiments import ExperimentConfig, gen_ground_truth, run
from mclab.linalg import Rng, _flapack
for kw in (dict(kind="lower", model="block", n_grid=(8,), r_grid=(1,),
                mu0_grid=(2.0,), p_grid=(0.5,), trials=2),
           dict(kind="moments", n_grid=(8,), r_grid=(1,), p_grid=(0.5,), trials=2)):
    run(ExperimentConfig(**kw))
gen_ground_truth("uniform_bounded", 8, 1, Rng(0), 2.0, 6.0)
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "loaded before any cert run"
run(ExperimentConfig(kind="cert", n_grid=(8,), r_grid=(1,), m_grid=(48,), trials=1))
assert "scipy.linalg._flapack" in sys.modules, "the cert run did not load LAPACK"
assert "scipy.linalg" not in sys.modules, "the cert run loaded it"
from mclab.sampling import sample_bernoulli
from mclab.solver import complete
complete(sample_bernoulli(6, 0.8, Rng(1)), [[1.0] * 6] * 6)
assert "scipy.linalg" not in sys.modules, "the solve loaded it"
import scipy.linalg
assert scipy.linalg.get_lapack_funcs(("sytrd",))[0] is _flapack().dsytrd
"""


def test_import_loads_neither_numpy_random_nor_scipy():
    # Rng builds its generators and its preset-words type on first use, and
    # the solver imports scipy only for its first threshold step
    probe = ("import sys, mclab\n"
             "assert 'numpy.random' not in sys.modules, 'numpy.random'\n"
             "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy'\n")
    src = str(Path(experiments.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_no_run_loads_scipy_linalg():
    # scipy.linalg is the larger part of start-up; lower, moments and the
    # model generators load no scipy at all, and the certificate engine and
    # the solver load only its LAPACK extension module, which a later
    # import of scipy.linalg adopts
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_threshold_scaling_tracks_n_log_n():
    # fit the 50% recovery threshold m50 on a coarse grid for several n;
    # the fitted constant m50 / (n r ln n) must stay within a factor two
    # across sizes
    consts = []
    for n in (32, 48, 64, 96):
        r = 2
        base = int(n * r * np.log(n))
        grid = sorted({min(n * n, max(2 * n * r - r * r + 1, int(base * f)))
                       for f in (0.8, 1.2, 1.8, 2.6, 3.6, 5.0)})
        cfg = ExperimentConfig(kind="phase", n_grid=(n,), r_grid=(r,),
                               m_grid=tuple(grid), model="random_orth",
                               trials=12, seed=47)
        rows = run(cfg)
        m50 = None
        for row in rows:
            if row.success_rate >= 0.5:
                m50 = row.m
                break
        assert m50 is not None, "no cell reached 50% at n=%d" % n
        consts.append(m50 / (n * r * np.log(n)))
    assert max(consts) / min(consts) < 2.0, consts
