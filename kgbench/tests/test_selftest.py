"""Self-test of the benchmark: tracing changes no result, leaves no wrapper
behind, and its counts repeat exactly.  Runs each workload at a small size.

    python3 -m pytest -q kgbench/tests
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "sweep": lambda: workloads.Sweep(
        dict(schemes=("uei1", "uei2"), c_list=(1.0, 100.0), tau_exponents=(2, 3, 4),
             T=0.1, K=8, ref_exponent=7),
        expected=False,
    ),
    # uei2 rides along on the real data so that every scheme is stepped
    "trajectory": lambda: workloads.Trajectory(
        dict(K=8, c_list=(1.0, 1e4), complex_schemes=("uei1", "lie", "largec"),
             real_schemes=("uei1_real", "strang", "uei2"), steps=32, tau=2.0**-10),
        expected=False,
    ),
    "oracle": lambda: workloads.Oracle(
        dict(K=8, c_list=(1.0,), tau_exponents=(6, 7, 8), nodes=16, verify_fast=True)
    ),
}


def _bindings():
    """id of every object bound in every kguniform module."""
    return {
        (name, attr): id(value)
        for name, mod in tracing._kg_modules().items()
        for attr, value in vars(mod).items()
    }


def _traced(wl, inputs):
    out, _wall, tracer, missing = run.traced_body(wl, inputs, "body0")
    assert missing == []
    return out, run.layer_metrics(wl, tracer, out)[1]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_output_is_bitwise_untraced_output(name):
    wl = SMALL[name]()
    inputs = wl.build(1)
    plain, _ = run.timed(wl, inputs, run.no_op)
    traced, _ = _traced(wl, inputs)
    assert wl.fingerprint(traced) == wl.fingerprint(plain)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_wrapper_is_restored(name):
    wl = SMALL[name]()
    inputs = wl.build(1)
    before = _bindings()
    tracer = tracing.Tracer()
    restore, _ = tracing.install(tracer)
    try:
        assert _bindings() != before
        wl.run(inputs, run.no_op)
    finally:
        restore()
    assert _bindings() == before


def _is_count(key):
    return key.endswith((".calls", ".transforms", ".steps")) or ".fft_per_step." in key


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name):
    wl = SMALL[name]()
    inputs = wl.build(1)
    first = _traced(wl, inputs)[1]
    second = _traced(wl, inputs)[1]
    counts = sorted(k for k in first if _is_count(k))
    assert "integrators.steps" in counts and "spectral.fft.transforms" in counts
    assert [first[k] for k in counts] == [second[k] for k in counts]


def test_fft_per_step_matches_the_stepper_bodies():
    wl = SMALL["trajectory"]()
    metrics = _traced(wl, wl.build(1))[1]
    want = {"uei2": 18, "uei1": 6, "uei1_real": 3, "lie": 4, "largec": 4, "strang": 2}
    got = {s: metrics[f"integrators.fft_per_step.{s}"] for s in want}
    assert got == want


def test_workers_never_exceed_cpus():
    for make in SMALL.values():
        assert 1 <= make().workers() <= workloads.nproc()
