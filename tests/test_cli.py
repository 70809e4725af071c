"""End-to-end CLI checks through main(argv)."""

import numpy as np
import pytest

import mclab.cli
from mclab.cli import main
from mclab.errors import (
    ConvergenceError,
    DivergenceError,
    GenerationFailureError,
    InjectivityError,
    NumericFailureError,
)
from mclab.experiments import rows_from_csv
from mclab.models import gt_from_text
from mclab.sampling import to_text as sampleset_to_text, sample_bernoulli
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


def test_svg_format_flag(tmp_path):
    out = tmp_path / "phase.svg"
    rc = main(["phase", "--set", "n_grid=8", "--set", "r_grid=1",
               "--set", "m_grid=40,64", "--set", "trials=4",
               "--format", "svg", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("<svg")


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


def test_gen_block_model_demands_valid_mu0(tmp_path, capsys):
    # mu0=3 at n=12, r=1 gives ell=4 and a clean block layout
    out = tmp_path / "block.txt"
    rc = main(["gen", "--model", "block", "--n", "12", "--r", "1",
               "--mu0", "3.0", "--out", str(out)])
    assert rc == 0
    gt = gt_from_text(out.read_text())
    assert gt.model == "block"
    # an impossible layout must exit through the numeric-failure path, not
    # a traceback: mu0 * r > n leaves no room for a single block
    rc = main(["gen", "--model", "block", "--n", "8", "--r", "5",
               "--mu0", "2.0", "--out", str(out)])
    assert rc in (1, 2)
    assert capsys.readouterr().err


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


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
