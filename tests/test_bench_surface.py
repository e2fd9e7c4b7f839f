"""What the benchmark under `perfbench/` calls of the package still exists
and still gives the verdicts it asserts.

`tracing.Tracer.install` rebinds every layer of `tracing.LAYERS` by its
attribute path and wraps each handle's `_pair_fn`, and the workloads call
`LinearMap.compose`, `AlgebraHandle.basis_product` and others that no
code under `src/` calls.  So under an installed tracer this runs, for
every workload, the set-up, the warm-up, every job once (its verdict
and exact `checked`) and the probe, and then uninstalls the tracer.
The benchmark files are imported and never edited.
"""

import os
import sys

import pytest

from hopfcross import isos

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_under_the_tracer(name, tmp_path):
    build_iso = isos.build_iso
    tracer = Tracer()
    tracer.install()
    try:
        workload = WORKLOADS[name](SEED, tmp_path)
        workload.warm_up()
        jobs = workload.jobs()
        assert jobs
        for job in jobs:
            assert job.run() == (True, job.checked), job.label
        assert workload.probe(), "the broken instance was not caught"
    finally:
        tracer.uninstall()
    assert isos.build_iso is build_iso
    assert tracer.counts()["isos.build_iso"] > 0
