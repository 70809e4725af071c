"""The benchmark tracer's targets exist: ``perfbench/spans.py`` wraps each
(owner, attribute) it names at the owner's own attribute, so a name the
program stops importing there would fail ``Tracer.install`` with a
KeyError.  perfbench/ is only read: its module runs from source, with no
bytecode written."""

import runpy
from pathlib import Path

import mclab

_SPANS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))


def test_every_tracer_target_is_an_attribute_of_its_owner():
    targets = _SPANS["targets"](mclab)
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []
    # the certificate module keeps a name it does not call, for the tracer
    assert ("mclab.certificate", "sample_bernoulli") in [
        (getattr(owner, "__name__", None), attr) for owner, attr, *_ in targets]
