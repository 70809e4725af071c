"""Experiment drivers: config parsing, the frozen CSV schema, determinism,
and per-kind row semantics."""

import dataclasses
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
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
        run(_phase_cfg(threads=0))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(n_grid=()))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(m_grid=()))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(m_grid=(100,)))  # m > n^2
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(kind="equiv", equiv_p="3m"))
    with pytest.raises(InvalidParameterError):
        run(_phase_cfg(format="pdf"))  # refused before any cell runs


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
    with pytest.raises(InvalidParameterError):
        wilson_interval(0, 0)


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


def test_emit_csv_and_svg(tmp_path):
    rows = run(_phase_cfg(m_grid=(40, 64)))
    csv_path = tmp_path / "out.csv"
    emit(rows, str(csv_path))
    assert csv_path.read_text() == rows_to_csv(rows)
    svg_path = tmp_path / "out.svg"
    emit(rows, str(svg_path), fmt="svg")
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == len(rows)
    with pytest.raises(InvalidParameterError):
        emit([], str(csv_path))
    with pytest.raises(InvalidParameterError):
        emit(rows, str(csv_path), fmt="pdf")


# ---------------------------------------------------------- determinism

def test_reruns_and_thread_counts_are_byte_identical():
    for name, cfg in KIND_CONFIGS.items():
        a = rows_to_csv(run(ExperimentConfig(**cfg)))
        b = rows_to_csv(run(ExperimentConfig(**cfg)))
        c = rows_to_csv(run(ExperimentConfig(**cfg, threads=2)))
        assert a == b == c, name
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
from mclab.linalg import Rng
for kw in (dict(kind="cert", n_grid=(8,), r_grid=(1,), m_grid=(48,), trials=1),
           dict(kind="lower", model="block", n_grid=(8,), r_grid=(1,),
                mu0_grid=(2.0,), p_grid=(0.5,), trials=2),
           dict(kind="moments", n_grid=(8,), r_grid=(1,), p_grid=(0.5,), trials=2)):
    run(ExperimentConfig(**kw))
gen_ground_truth("uniform_bounded", 8, 1, Rng(0), 2.0, 6.0)
assert "scipy.linalg" not in sys.modules, "loaded before any solve"
from mclab.sampling import sample_bernoulli
from mclab.solver import complete
complete(sample_bernoulli(6, 0.8, Rng(1)), [[1.0] * 6] * 6)
assert "scipy.linalg" in sys.modules, "the solve did not load it"
"""


def test_only_the_solver_loads_scipy_linalg():
    # scipy.linalg is the larger part of start-up; cert, lower, moments and
    # the model generators never call it
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
