"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public mclab functions, at the module attribute
the caller looks them up through, with timing wrappers; ``uninstall`` puts
the originals back and reports any attribute that is not the original
afterwards.  No file of the program changes.

Trial-level calls get a span each: (id, name, layer, start, end, parent,
workload, call, trial, child seconds, info).  ``child`` is the time covered
by direct children, spans and counted operations alike, so a span's self
time is ``end - start - child``.  High-frequency operator calls only count
calls and accumulate time.  Every layer's busy time is the union of the
intervals spent inside its calls, so nested calls of one layer count once,
while a call reached through another layer counts for both.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("models", "sampling", "geometry", "linalg", "certificate", "solver",
          "experiments")


def _solve_info(res):
    return {"iters": int(res.iters), "converged": bool(res.converged)}


def _build_info(rep):
    return {"failed": rep.failure is not None}


def _flag_info(value):
    return {"ok": bool(value)}


def _recovered_info(value):
    return {"ok": bool(value[0])}


def targets(mclab):
    """(owner, attribute, layer, span name or None for a counted op, info).

    Owners are the modules whose globals the runners and layers call
    through; the runner imports names, so patching the defining module
    alone would miss its calls.
    """
    ex, cert, solver = mclab.experiments, mclab.certificate, mclab.solver
    T = mclab.geometry.TangentSpace
    spans = [
        (ex, "gen_random_orthogonal", "models", None),
        (ex, "gen_uniformly_bounded", "models", None),
        (ex, "gen_low_coherence", "models", None),
        (ex, "gen_lower_bound_block", "models", None),
        (ex, "block_model_spec", "models", None),
        (ex, "hadamard_family", "models", None),
        (ex, "sample_bernoulli", "sampling", None),
        (ex, "sample_uniform", "sampling", None),
        (cert, "sample_bernoulli", "sampling", None),
        (mclab.models, "tangent_space", "geometry", None),
        (ex, "incoherence", "geometry", None),
        (cert, "incoherence", "geometry", None),
        (cert, "spectral_norm", "linalg", None),
        (ex, "try_build_certificate", "certificate", _build_info),
        (ex, "verify_certificate", "certificate", _flag_info),
        (ex, "estimate_trace_moment", "certificate", None),
        (cert, "deviation_stat", "certificate", None),
        (cert, "build_certificate_neumann", "certificate", None),
        (cert, "build_certificate_cg", "certificate", None),
        (ex, "complete", "solver", _solve_info),
        (ex, "recovered", "solver", _recovered_info),
    ]
    ops = [
        (solver, "project_omega", "sampling"),
        (cert, "project_omega", "sampling"),
        (cert, "q_omega", "sampling"),
        (T, "apply_pt", "geometry"),
        (T, "apply_ptperp", "geometry"),
        (T, "apply_qt", "geometry"),
    ]
    out = [(o, a, layer, "%s.%s" % (layer, a), info) for o, a, layer, info in spans]
    out += [(o, a, layer, None, None) for o, a, layer in ops]
    return out


# span names that open a new trial, per run kind
TRIAL_START = {
    "phase": {"models.gen_random_orthogonal", "models.gen_uniformly_bounded",
              "models.gen_low_coherence", "models.gen_lower_bound_block"},
    "lower": {"sampling.sample_bernoulli"},
    "moments": {"sampling.sample_bernoulli"},
}
TRIAL_START["cert"] = TRIAL_START["equiv"] = TRIAL_START["phase"]


class Tracer:
    """In-memory span recorder.  Single-threaded: runs use threads=1."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.ops = defaultdict(lambda: [0, 0.0])  # op name -> [calls, seconds]
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack = []  # frames: [layer, start, child seconds, span id]
        self._patched = []
        self.not_restored = []
        self.call = -1
        self.trial = -1
        self._trial_start = set()

    # -- recording ---------------------------------------------------------

    def begin_call(self, call: int, kind: str):
        self.call = call
        self.trial = -1
        self._trial_start = TRIAL_START[kind]

    def _enter(self, layer, sid):
        self._depth[layer] += 1
        frame = [layer, time.perf_counter(), 0.0, sid]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        layer, start, child, _ = frame
        self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.busy_s[layer] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return start, end, child

    def span(self, name, layer, fn, *args, info=None, **kw):
        """Call ``fn`` inside a span and return its result."""
        if name in self._trial_start:
            self.trial += 1
        parent = self._stack[-1][3] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children point at it
        frame = self._enter(layer, sid)
        result = raised = None
        try:
            result = fn(*args, **kw)
            return result
        except BaseException as exc:
            raised = type(exc).__name__
            raise
        finally:
            start, end, child = self._exit(frame)
            note = {"raised": raised} if raised else (info(result) if info else None)
            self.spans[sid] = (sid, name, layer, start, end, parent, self.workload,
                               self.call, self.trial, child, note)

    def op(self, name, layer, fn, *args, **kw):
        """Call ``fn`` as a counted operation: no span, only totals."""
        frame = self._enter(layer, self._stack[-1][3] if self._stack else -1)
        try:
            return fn(*args, **kw)
        finally:
            start, end, _ = self._exit(frame)
            acc = self.ops[name]
            acc[0] += 1
            acc[1] += end - start

    # -- patching ----------------------------------------------------------

    def install(self, mclab):
        for owner, attr, layer, name, info in targets(mclab):
            orig = vars(owner)[attr]
            if name is None:
                opname = "%s.%s" % (layer, attr)

                def wrapper(*a, _f=orig, _n=opname, _l=layer, **kw):
                    return self.op(_n, _l, _f, *a, **kw)
            else:
                def wrapper(*a, _f=orig, _n=name, _l=layer, _i=info, **kw):
                    return self.span(_n, _l, _f, *a, info=_i, **kw)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, orig))

    def uninstall(self):
        """Restore every patched attribute; return those still not original."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        bad = ["%s.%s" % (getattr(o, "__name__", o), a)
               for o, a, orig in self._patched if vars(o)[a] is not orig]
        self._patched = []
        return bad

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str):
        keys = ("id", "name", "layer", "start", "end", "parent", "workload",
                "call", "trial", "child", "info")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
