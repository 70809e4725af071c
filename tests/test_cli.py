"""End-to-end CLI checks through main(argv)."""

import argparse
import dataclasses
import math
import re
import statistics
import warnings
from pathlib import Path

import numpy as np
import pytest

import mclab.cli
from mclab.cli import build_parser, main
from mclab.errors import (
    ConvergenceError,
    DivergenceError,
    GenerationFailureError,
    InjectivityError,
    NumericFailureError,
)
from mclab.certificate import _trace_gram_power
from mclab.experiments import (
    _SLOT_MODEL,
    KINDS,
    MODELS,
    ExperimentConfig,
    _stream,
    gen_ground_truth,
    rows_from_csv,
)
from mclab.models import gt_from_text, gt_to_text
from mclab.sampling import to_text as sampleset_to_text, q_omega, sample_bernoulli
from mclab.linalg import Rng


def test_phase_subcommand_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_grid=8\nr_grid=1\nm_grid=64\ntrials=4\nmodel=random_orth\n")
    out = tmp_path / "sweep.csv"
    rc = main(["phase", "--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert rc == 0
    assert "wrote 1 rows" in capsys.readouterr().out
    rows = rows_from_csv(out.read_text())
    assert rows[0].kind == "phase" and rows[0].success_rate == 1.0


def test_set_overrides_beat_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_grid=8\nr_grid=1\nm_grid=64\ntrials=4\n")
    out = tmp_path / "o.csv"
    rc = main(["phase", "--config", str(cfg), "--set", "trials=6",
               "--set", "m_grid=40,64", "--out", str(out)])
    assert rc == 0
    rows = rows_from_csv(out.read_text())
    assert len(rows) == 2 and all(r.trials == 6 for r in rows)


def test_default_output_name_is_kind_dot_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["lower", "--set", "n_grid=8", "--set", "r_grid=1",
               "--set", "model=block", "--set", "p_grid=0.5",
               "--set", "trials=20"])
    assert rc == 0
    assert (tmp_path / "lower.csv").exists()


def test_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m_grid=ten\n")
    assert main(["phase", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    # kind conflict between config body and subcommand
    conflict = tmp_path / "conflict.cfg"
    conflict.write_text("kind=cert\nn_grid=8\nr_grid=1\nm_grid=30\n")
    assert main(["phase", "--config", str(conflict)]) == 1
    # validation failure inside the runner
    assert main(["phase", "--set", "m_grid=100", "--set", "n_grid=8"]) == 1
    # missing config file
    assert main(["phase", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("flag,value", [("--seed", "abc")])
def test_bad_shorthand_flag_exits_1(tmp_path, capsys, flag, value):
    # --seed is a --set pair: a bad value is a configuration error, as with
    # --set
    out = tmp_path / "o.csv"
    assert main(["phase", "--set", "n_grid=8", "--set", "r_grid=1",
                 "--set", "m_grid=40", flag, value, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_threads_other_than_1_exits_1_before_any_cell(tmp_path, capsys, monkeypatch):
    # cells run in order on one thread; the key is kept only at its one value
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the config was refused")

    monkeypatch.setattr(mclab.experiments, "complete", no_cell)
    monkeypatch.setattr(mclab.experiments, "sample_bernoulli", no_cell)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_grid=8\nr_grid=1\nm_grid=40\nthreads=2\n")
    out = tmp_path / "o.csv"
    for argv in (["--config", str(cfg)],
                 ["--set", "n_grid=8", "--set", "r_grid=1", "--set", "m_grid=40",
                  "--set", "threads=2"]):
        assert main(["phase", *argv, "--out", str(out)]) == 1
        assert "threads must be 1" in capsys.readouterr().err
        assert not out.exists()
    for flag, value in (("--threads", "1"), ("--format", "csv")):
        with pytest.raises(SystemExit) as exc:  # no such flag is left
            main(["phase", flag, value, "--out", str(out)])
        assert exc.value.code == 2


def test_shorthand_flags_beat_set(tmp_path):
    # the flag is applied last: --seed 3 after --set seed=5 runs seed 3
    def csv(*argv):
        out = tmp_path / "o.csv"
        assert main(["phase", "--set", "n_grid=8", "--set", "r_grid=1",
                     "--set", "m_grid=40", "--set", "trials=2", *argv,
                     "--out", str(out)]) == 0
        return out.read_text()

    flagged = csv("--set", "seed=5", "--seed", "3")
    assert rows_from_csv(flagged)[0].trials == 2
    assert flagged == csv("--set", "seed=3") != csv("--set", "seed=5")


@pytest.mark.parametrize("key", ["solver_step", "solver_tol_feas", "solver_tol_obj",
                                 "solver_rank_cap", "cert_kmax", "cert_tol",
                                 "recover_tol", "format"])
def test_retired_solver_and_certificate_keys_are_unknown(tmp_path, capsys, key):
    # the harness runs at the library defaults; SolverParams and the
    # keywords of recovered and verify_certificate still take other values;
    # CSV is the only output format
    out = tmp_path / "o.csv"
    assert main(["phase", "--set", "n_grid=8", "--set", "r_grid=1",
                 "--set", "m_grid=40", "--set", key + "=1", "--out", str(out)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_subcommands_are_the_run_kinds_and_the_two_utilities():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(KINDS) | {"gen", "solve"}


def test_readme_key_block_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```\n(kind .*?)```", readme, re.S).group(1)
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    # a key line names one or more keys at its start; continuations indent
    listed = {key for line in block.splitlines()
              for key in re.match(r"\w*(?:, \w+)*", line).group().split(", ")
              if key}
    assert listed == keys


def test_gen_solve_round_trip(tmp_path, capsys):
    gt_path = tmp_path / "gt.txt"
    rc = main(["gen", "--model", "random_orth", "--n", "12", "--r", "1",
               "--seed", "40", "--out", str(gt_path)])
    assert rc == 0
    gt = gt_from_text(gt_path.read_text())
    assert gt.n == 12 and gt.r == 1

    S = sample_bernoulli(12, 0.8, Rng(40, 1))
    samples = tmp_path / "omega.txt"
    samples.write_text(sampleset_to_text(S))
    observed = tmp_path / "observed.txt"
    obs = np.where(S.mask, gt.M, 0.0)
    observed.write_text(
        "\n".join(" ".join(repr(float(v)) for v in row) for row in obs) + "\n")
    truth = tmp_path / "truth.txt"
    truth.write_text(
        "\n".join(" ".join(repr(float(v)) for v in row) for row in gt.M) + "\n")

    xhat_path = tmp_path / "xhat.txt"
    rc = main(["solve", "--samples", str(samples), "--observed", str(observed),
               "--out", str(xhat_path), "--truth", str(truth)])
    assert rc == 0
    log = capsys.readouterr().out
    assert "iters=" in log and "feas_resid=" in log and "nuclear=" in log
    assert "converged=1" in log
    assert "recovered=1" in log
    Xhat = np.loadtxt(xhat_path)
    assert np.linalg.norm(Xhat - gt.M) / np.linalg.norm(gt.M) <= 1e-4


@pytest.mark.parametrize("model", MODELS)
def test_gen_writes_the_runners_draw(tmp_path, model):
    # `mclab gen` and the experiment runners share one model dispatch
    out = tmp_path / "gt.txt"
    rc = main(["gen", "--model", model, "--n", "8", "--r", "2", "--seed", "5",
               "--sigma", "3,1.5", "--out", str(out)])
    assert rc == 0
    gt = gen_ground_truth(model, 8, 2, Rng(5), mu0=2.0, mu_b_cap=6.0,
                          sigma=np.array([3.0, 1.5]))
    assert out.read_text() == gt_to_text(gt)


def test_gen_block_model_demands_valid_mu0(tmp_path, capsys):
    # mu0=3 at n=12, r=1 gives ell=4 and a clean block layout
    out = tmp_path / "block.txt"
    rc = main(["gen", "--model", "block", "--n", "12", "--r", "1",
               "--mu0", "3.0", "--out", str(out)])
    assert rc == 0
    gt = gt_from_text(out.read_text())
    assert gt.model == "block"
    # an impossible layout is a configuration error (exit 1), not a
    # traceback: mu0 * r > n leaves no room for a single block
    rc = main(["gen", "--model", "block", "--n", "8", "--r", "5",
               "--mu0", "2.0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--model", "foo"), ("--n", "abc"),
                                        ("--r", "1.5"), ("--seed", "x"),
                                        ("--mu0", "abc"), ("--sigma", "3,abc")])
def test_gen_bad_flag_value_exits_1(tmp_path, capsys, flag, value):
    args = {"--model": "random_orth", "--n": "8", "--r": "2", flag: value}
    out = tmp_path / "gt.txt"
    assert main(["gen", *[t for kv in args.items() for t in kv],
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model,flag", [("block", "--mu0"),
                                        ("low_coherence", "--mu-b-cap")])
def test_gen_nan_model_parameter_exits_1_before_any_draw(tmp_path, capsys,
                                                         monkeypatch, model, flag):
    # --mu0 nan was a ValueError traceback; --mu-b-cap nan rejected 1000 draws
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw ran before the parameter was refused")

    monkeypatch.setattr(mclab.models, "gen_random_orthogonal", no_draw)
    out = tmp_path / "gt.txt"
    assert main(["gen", "--model", model, "--n", "8", "--r", "1", flag, "nan",
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,pairs", [
    ("lower", ["n_grid=8", "r_grid=1", "p_grid=0.5", "mu0_grid=nan", "trials=2"]),
    ("phase", ["model=low_coherence", "mu_b_cap=nan", "n_grid=8", "r_grid=1",
               "m_grid=40", "trials=1"]),
], ids=["lower_mu0", "phase_mu_b_cap"])
def test_nan_model_parameter_exits_1_before_any_cell(tmp_path, capsys, monkeypatch,
                                                     kind, pairs):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the config was refused")

    for name in ("sample_bernoulli", "gen_low_coherence", "gen_lower_bound_block"):
        monkeypatch.setattr(mclab.experiments, name, no_cell)
    out = tmp_path / "o.csv"
    argv = [tok for pair in pairs for tok in ("--set", pair)]
    assert main([kind, *argv, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_moments_bound_past_the_float_range_is_inf(tmp_path):
    # j = 10, k = 8 overflowed jk^(2jk) and the polynomial bound's power
    out = tmp_path / "m.csv"
    assert main(["moments", "--set", "n_grid=16", "--set", "r_grid=1",
                 "--set", "p_grid=0.5", "--set", "j_grid=1,10",
                 "--set", "k_grid=0,8", "--set", "trials=2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.splitlines()
    last = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert last["moment_bound_power"] == last["moment_bound_poly"] == "inf"
    rows = rows_from_csv(text)
    assert [(row.j, row.k) for row in rows] == [(1, 0), (1, 8), (10, 0), (10, 8)]
    assert rows[3].moment_bound_power == rows[3].moment_bound_poly == float("inf")
    assert np.isfinite([[row.moment_bound_power, row.moment_bound_poly]
                        for row in rows[:3]]).all()


def test_moments_stderr_of_values_past_1e154_is_finite(tmp_path):
    # np.std squared deviations of about 1e203 and wrote moment_se inf
    out = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["moments", "--set", "n_grid=16", "--set", "r_grid=1",
                     "--set", "p_grid=0.05", "--set", "j_grid=150",
                     "--set", "k_grid=0", "--set", "trials=3",
                     "--out", str(out)]) == 0
    (row,) = rows_from_csv(out.read_text())
    # the same draws, trial by trial
    cfg = ExperimentConfig(kind="moments")
    rng = Rng(cfg.seed, _stream(0, 0, _SLOT_MODEL))
    T = gen_ground_truth(cfg.model, 16, 1, rng.substream(0), cfg.mu0_grid[0],
                         cfg.mu_b_cap).tangent_space()
    A = np.stack([q_omega(T.e, sample_bernoulli(16, 0.05, rng.substream(t)))
                  for t in (1, 2, 3)])
    vals = list(_trace_gram_power(A, 150))
    assert max(vals) > 1e200
    assert row.moment_mean == np.mean(vals)
    expected = statistics.stdev(vals) / math.sqrt(3)
    assert math.isfinite(row.moment_se)
    assert row.moment_se == pytest.approx(expected, rel=32 * np.finfo(float).eps, abs=0.0)


def test_gen_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--model", "random_orth", "--n", "8",
              "--out", str(tmp_path / "gt.txt")])
    assert exc.value.code == 2


def test_numeric_failures_share_one_base():
    for cls in (DivergenceError, InjectivityError, ConvergenceError):
        assert issubclass(cls, NumericFailureError)
    assert not issubclass(GenerationFailureError, NumericFailureError)


@pytest.mark.parametrize("exc", [DivergenceError("d"), InjectivityError("i"),
                                 ConvergenceError("c"), GenerationFailureError("g")])
def test_numeric_failure_exits_2(tmp_path, monkeypatch, capsys, exc):
    def fail(cfg):
        raise exc
    monkeypatch.setattr(mclab.cli, "run", fail)
    assert main(["cert", "--out", str(tmp_path / "c.csv")]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_solve_missing_inputs_exit_1(tmp_path):
    assert main(["solve", "--samples", str(tmp_path / "a"), "--observed",
                 str(tmp_path / "b"), "--out", str(tmp_path / "c")]) == 1


def _solve_rank_one(tmp_path, extra=(), bad_entry=False) -> int:
    # `mclab solve` on a rank-one 8x8 instance, optionally with a NaN on Omega
    S = sample_bernoulli(8, 0.6, Rng(42, 1))
    samples = tmp_path / "omega.txt"
    samples.write_text(sampleset_to_text(S))
    obs = np.where(S.mask, 1.0, 0.0)
    if bad_entry:
        obs[S.rows[0], S.cols[0]] = np.nan
    observed = tmp_path / "observed.txt"
    observed.write_text(
        "\n".join(" ".join(repr(float(v)) for v in row) for row in obs) + "\n")
    return main(["solve", "--samples", str(samples), "--observed", str(observed),
                 "--out", str(tmp_path / "xhat.txt"), *extra])


@pytest.mark.parametrize("flag,name", [("--observed", "bad.txt"), ("--truth", "bad.txt"),
                                       ("--truth", "2x2.txt"), ("--out", ".")],
                         ids=["observed", "truth", "truth_shape", "out_dir"])
def test_solve_unparsable_matrix_or_directory_exit_1(tmp_path, capsys, monkeypatch,
                                                     flag, name):
    # each is refused before the solve; the later flag wins over
    # _solve_rank_one's own --observed and --out
    def no_solve(*args, **kwargs):
        raise AssertionError("complete ran before the refusal")

    monkeypatch.setattr(mclab.cli, "complete", no_solve)
    (tmp_path / "bad.txt").write_text("1.0 abc\n2.0 3.0\n")
    (tmp_path / "2x2.txt").write_text("1.0 0.0\n0.0 1.0\n")  # the grid is 8x8
    assert _solve_rank_one(tmp_path, (flag, str(tmp_path / name))) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "xhat.txt").exists()


@pytest.mark.parametrize("argv", [
    ["phase", "--config", "{dir}"],
    ["phase", "--set", "n_grid=8", "--set", "r_grid=1", "--set", "m_grid=40",
     "--set", "trials=1", "--out", "{dir}"],
    ["gen", "--model", "random_orth", "--n", "8", "--r", "1", "--out", "{dir}"],
    ["solve", "--samples", "{dir}", "--observed", "{dir}", "--out", "{dir}"],
], ids=["phase_config", "phase_out", "gen_out", "solve"])
def test_directory_in_place_of_a_file_exit_1(tmp_path, capsys, argv):
    assert main([a.format(dir=tmp_path) for a in argv]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["{dir}", "{dir}/missing/x.csv"], ids=["dir", "no_parent"])
def test_experiment_out_refused_before_the_sweep(tmp_path, capsys, monkeypatch, out):
    def no_run(cfg):
        raise AssertionError("run started before --out was checked")

    monkeypatch.setattr(mclab.cli, "run", no_run)
    assert main(["phase", "--out", out.format(dir=tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_non_finite_observed_entry_exit_1(tmp_path, capsys):
    assert _solve_rank_one(tmp_path, bad_entry=True) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [("--tau", "-5"), ("--tau", "nan"), ("--tau", "inf"),
                                   ("--rank-cap", "0"), ("--rank-cap", "-1"),
                                   ("--tau", "abc"), ("--step", "x"),
                                   ("--max-iter", "1.5"), ("--rank-cap", "two"),
                                   ("--step", "nan"), ("--tol-feas", "nan"),
                                   ("--tol-obj", "nan")],
                         ids="=".join)
def test_solve_invalid_knob_exit_1(tmp_path, capsys, extra):
    assert _solve_rank_one(tmp_path, extra) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "xhat.txt").exists()


@pytest.mark.parametrize("header,entry", [
    ("# 8 8 bernoulli 0.0 38", "0 0"),  # p = 0 with entries: the step is 1/p
    ("# 8 8 bernoulli 1.5 38", "0 0"),
    ("# 8 8 bernoulli abc 38", "0 0"),
    ("# 8 x bernoulli 0.6 38", "0 0"),
    ("# 8 8 bernoulli 0.6 38", "0 x"),
    ("# 8 8 bernoulli 0.6 38", "99999999999999999999 0"),  # past int64
    ("# 99999999999999999999 8 bernoulli 0.6 38", "0 0"),  # numpy refuses the shape
], ids=["p0", "p1.5", "p_abc", "n2_x", "index_x", "index_2e19", "n1_2e19"])
def test_solve_bad_sample_file_exit_1(tmp_path, capsys, header, entry):
    samples = tmp_path / "omega.txt"
    samples.write_text("%s\n%s\n1 2\n" % (header, entry))
    observed = tmp_path / "observed.txt"
    observed.write_text("\n".join(" ".join(["1.0"] * 8) for _ in range(8)) + "\n")
    assert main(["solve", "--samples", str(samples), "--observed", str(observed),
                 "--out", str(tmp_path / "xhat.txt")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "xhat.txt").exists()


def test_solve_sample_file_with_p_above_one_is_refused_on_reading(tmp_path, capsys,
                                                                  monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("complete ran before the refusal")

    monkeypatch.setattr(mclab.cli, "complete", no_solve)
    samples = tmp_path / "omega.txt"
    samples.write_text("# 4 4 bernoulli 2.0 3\n0 0\n1 2\n3 3\n")
    observed = tmp_path / "observed.txt"
    observed.write_text("\n".join(" ".join(["1.0"] * 4) for _ in range(4)) + "\n")
    assert main(["solve", "--samples", str(samples), "--observed", str(observed),
                 "--out", str(tmp_path / "xhat.txt")]) == 1
    assert "error: p must lie in [0, 1], got 2.0" in capsys.readouterr().err
    assert not (tmp_path / "xhat.txt").exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
