"""Determinism self-test of the benchmark; takes a few minutes:

    python3 -m pytest perfbench -q

For every workload, the traced set-up, warm-up and pass run twice with
one seed and must repeat their exact counters; a second seed must pass
every verdict with the same `checked` total, and the probe must be
caught on both seeds.  Pair-fill and `act_sv` counts may differ between
seeds: over F_5 a random vector has zero coordinates, whose pairs the
products skip.
"""

import pytest

import run

if run.load_package() is None:
    pytest.skip("hopfcross sources not found", allow_module_level=True)

from workloads import WORKLOADS  # noqa: E402  (needs the package path)

COUNTERS = ("crossed.pair_fill", "crossed.product", "crossed.product_dense",
            "actions.ActionData.act_sv", "linalg.LinearMap.apply_sv")


def traced(name, seed):
    tally = run.Tally()
    tracer, _, workload = run.run_traced(WORKLOADS[name], seed, tally,
                                         run.Meter())
    counts = tracer.counts()
    assert tally.failed == 0 and tally.attempted > 0
    assert workload.probe(), "the broken instance was not caught"
    return {"checked": tally.checked, **{c: counts[c] for c in COUNTERS}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_and_second_seed_passes(name):
    first = traced(name, 1)
    assert traced(name, 1) == first
    second = traced(name, 2)
    assert second["checked"] == first["checked"]
    print(name, first, second)
