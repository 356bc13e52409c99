"""The sweep's references checked against an independent solution.

A reference's certificate compares UEI2 with itself at twice the step, so a
UEI2 that converged at order 2 to a slightly wrong equation would pass it.
A Lawson RK4 (tests/lawson.py), written from the equation, shares none of
UEI2's code: a reference must lie within its own certificate of it.  Its true
error measures about a third of its certificate (the second-order error model).
"""

import pytest

from kguniform import (
    SpectralField,
    make_grid,
    make_multipliers,
    paper_initial_data,
    reconstruct_z,
    reference_solution,
    sobolev_norm,
    to_first_order,
    twist,
)
from lawson import lawson_z

T = 0.1


@pytest.fixture(scope="module", params=[1.0, 10.0, 100.0], ids=lambda c: f"c={c:g}")
def lawson_run(request):
    """(multipliers, paper data, Lawson z(T)) of one c at K = 32."""
    c = request.param
    m = make_multipliers(make_grid(1, 32), c)
    state = paper_initial_data(m.grid, c)
    return m, state, SpectralField(m.grid, lawson_z(state, m, T))


def test_reference_lies_within_its_certificate_of_a_lawson_run(lawson_run):
    m, state, z_lawson = lawson_run
    pair0 = twist(*to_first_order(state, m), 0.0, m.c)
    ref = reference_solution(pair0, T, m, T * 2.0**-12)
    gap = sobolev_norm(reconstruct_z(ref.pair) - z_lawson, 1.0)
    assert gap <= ref.certificate, f"c={m.c}: {gap:.3e} from Lawson, certificate {ref.certificate:.3e}"
