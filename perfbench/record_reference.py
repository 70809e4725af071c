"""Record the outputs the benchmark compares calls against at ``--seed 0``.

    python3 perfbench/record_reference.py

Runs the first ``CALLS[workload]`` calls of every workload's ``--seed 0``
plan and writes ``perfbench/reference.json``: per run kind and config seed,
the ``successes`` of each row (plus ``prob_empirical`` for ``lower`` and
``moment_mean`` for ``moments``).  Run it only on the commit whose outputs
are the reference; the committed file was recorded at the seed commit.
"""

from __future__ import annotations

import itertools
import json

import workloads
from run import import_mclab

# on a 2-vCPU Xeon one 26-second run makes about half of these calls for
# phase, cert and equiv and up to about as many for sample-light; calls past
# the table are held to the acceptance conditions instead
CALLS = {"phase-converge": 400, "cert-neumann": 100, "equiv-stall": 40,
         "sample-light": 150}


def main():
    ex = import_mclab().experiments
    ref = {}
    for name, count in CALLS.items():
        plan = workloads.call_plan(workloads.WORKLOADS[name], 0)
        for kind, seed in itertools.islice(plan, count):
            rows = ex.run(workloads.make_config(ex, kind, seed))
            ref.setdefault(kind, {})[str(seed)] = workloads.row_outputs(kind, rows)
        print("%s: %d calls" % (name, count), flush=True)
    with open(workloads.reference_path(), "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
