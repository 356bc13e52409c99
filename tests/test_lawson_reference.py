"""The sweep's references, and UEI1 on complex data, checked against an
independent solution.

A reference's certificate compares UEI2 with itself at twice the step, so a
UEI2 that converged at order 2 to a slightly wrong equation would pass it.
A Lawson RK4 (tests/lawson.py), written from the equation, shares none of
UEI2's code: a reference must lie within its own certificate of it.  Its true
error measures about a third of its certificate (the second-order error model).

`reference_solution` runs real data only, so the Lawson run is also the
reference of UEI1 on complex data: its orders and error constants must meet
the acceptance bounds there.
"""

import numpy as np
import pytest

from kguniform import (
    KgState,
    SchemeId,
    SpectralField,
    StepContext,
    evolve,
    field_from_values,
    make_grid,
    make_multipliers,
    paper_initial_data,
    reconstruct_z,
    reference_solution,
    sobolev_norm,
    to_first_order,
    twist,
)
from kguniform.harness import ORDER_BANDS, ErrorTable, SweepRow, fit_order
from lawson import lawson_z
from test_acceptance import _constant_spread

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


def _complex_data(grid, c):
    """The complex pair z = (0.3+0.2i) sin x/(2+cos x), z_t = c^2 (0.2+0.1i)
    cos 2x/(2+cos x)."""
    x = grid.x
    z = (0.3 + 0.2j) * np.sin(x) / (2.0 + np.cos(x))
    zt = c * c * (0.2 + 0.1j) * np.cos(2.0 * x) / (2.0 + np.cos(x))
    return KgState(z=field_from_values(grid, z), zt=field_from_values(grid, zt))


@pytest.fixture(scope="module")
def complex_lawson_runs():
    """{c: (multipliers, twisted pair at t = 0, Lawson z(T))} on the complex
    pair at K = 32, c = 1, 10, 100."""
    runs = {}
    for c in (1.0, 10.0, 100.0):
        m = make_multipliers(make_grid(1, 32), c)
        state = _complex_data(m.grid, c)
        pair0 = twist(*to_first_order(state, m), 0.0, c)
        runs[c] = m, pair0, SpectralField(m.grid, lawson_z(state, m, T))
    return runs


def test_uei1_on_complex_data_is_uniformly_first_order_against_lawson(complex_lawson_runs):
    rows, orders = [], {}
    for c, (m, pair0, z_lawson) in complex_lawson_runs.items():
        assert sobolev_norm(pair0.u_star - pair0.v_star, 1.0) > 1e-3  # really complex data
        pts = []
        for e in range(4, 11):
            tau = T * 2.0**-e
            pair = evolve(SchemeId.UEI1, pair0, T, StepContext(m.grid, m, tau))
            pts.append((tau, sobolev_norm(reconstruct_z(pair) - z_lawson, 1.0)))
        rows += [SweepRow("uei1", c, tau, err, 0.0) for tau, err in pts]
        orders[c] = fit_order(pts)
    spread, consts = _constant_spread(ErrorTable(rows, orders), "uei1", 1.0, list(orders))
    lo, hi = ORDER_BANDS["uei1"]
    assert all(lo <= o <= hi for o in orders.values()), f"UEI1 orders outside [{lo}, {hi}]: {orders}"
    assert spread <= 10.0, f"UEI1 error constants vary {spread:.1f}x across c: {consts}"
