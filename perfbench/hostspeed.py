"""Host speed: a fixed numpy kernel timed between the benchmark's calls.

On a shared host the same ``run()`` call on the same inputs ran up to half
again as long in one ten-second stretch as in another, and its rate over
28-second stretches moved by a fifth, whatever the program did: other
machines' work on the same physical cores slows this process's own CPU
time as much as its wall time.  The benchmark times this kernel, which
does not touch mclab, before the first call and after every call, and
divides each call's wall time by the host's slowness around it (the mean of
the kernel's times just before and just after the call, over
``REF_KERNEL_S``).  A timing so scaled is the one the call would take on the
host at the reference speed; a change to mclab moves it as much as it moves
the raw wall time.

The kernel mixes the kinds of work the workloads do: small LAPACK SVDs (the
SVT threshold step), BLAS products, sorting and random draws (sampling),
and interpreter-bound Python.
"""

from __future__ import annotations

import time

import numpy as np

# scaled timings read as on a host where the kernel takes this long; on the
# 2-vCPU Intel Xeon the baseline was recorded on (one BLAS thread), its
# median over a run read from 0.017 to 0.027 s, median 0.023 s
REF_KERNEL_S = 0.020

_RNG = np.random.default_rng(20090309)
_SQ = _RNG.standard_normal((48, 48))
_GEMM = _RNG.standard_normal((128, 128))
_INDEX = _RNG.integers(0, 48 * 48, size=20_000)


def kernel_s() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(16):
        np.linalg.svd(_SQ, full_matrices=False)
    for _ in range(16):
        _GEMM @ _GEMM
    for _ in range(4):
        np.unique(_INDEX)
    for seed in range(8):
        np.random.default_rng(seed).random(20_000)
    s = 0
    for i in range(50_000):
        s += i * i
    return time.perf_counter() - t0


def warm_up(repeats: int = 5) -> None:
    for _ in range(repeats):
        kernel_s()
