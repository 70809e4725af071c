"""The benchmark's pinned outputs, replayed through the library: every
``cert`` call of ``perfbench/reference.json`` (and, with --runslow, every
``equiv`` call) gives the ``successes`` recorded there.  perfbench/ is
only read: its modules run from source, with no bytecode written."""

import runpy
from pathlib import Path

import pytest

from mclab import experiments

_WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


def _replay(kind: str) -> int:
    ref = _WORKLOADS["load_reference"](_WORKLOADS["reference_path"]())[kind]
    for seed, pinned in ref.items():
        cfg = _WORKLOADS["make_config"](experiments, kind, int(seed))
        got = _WORKLOADS["row_outputs"](kind, experiments.run(cfg))
        assert got["successes"] == pinned["successes"], (kind, seed)
    return len(ref)


def test_cert_reference_calls_keep_their_successes():
    assert _replay("cert") == 100


@pytest.mark.slow
def test_equiv_reference_calls_keep_their_successes():
    assert _replay("equiv") == 40
