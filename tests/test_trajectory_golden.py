"""Short-trajectory golden values for every scheme.

The stored numbers are H^1 norms of reconstruct_z after a 64-step evolve at
K = 64, tau = 2^-8, c in {1, 1e4}.  Real-data schemes start from the paper's
profile, the complex-data schemes from a genuinely complex profile.  A
refactor of the steppers must reproduce them to 1e-13 relative.

Re-record (only when a change of the numbers is intended) with

    PYTHONPATH=src python tests/test_trajectory_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from kguniform import (
    KgState,
    SchemeId,
    StepContext,
    evolve,
    field_from_values,
    make_grid,
    make_multipliers,
    reconstruct_z,
    sobolev_norm,
    to_first_order,
    twist,
)
from kguniform.harness import paper_initial_data

GOLDEN = Path(__file__).parent / "data" / "golden_trajectory.json"
K, TAU, STEPS = 64, 2.0**-8, 64
C_VALUES = (1.0, 1e4)
COMPLEX_SCHEMES = (SchemeId.UEI1, SchemeId.LIE_LIMIT, SchemeId.LARGE_C_UEI1)


def _initial_pair(scheme, grid, c):
    if scheme in COMPLEX_SCHEMES:
        x = grid.x
        zv = (0.3 + 0.2j) * np.sin(x) / (2.0 + np.cos(x))
        ztv = c * c * 0.2 * np.cos(2.0 * x) / (2.0 + np.cos(x))
        s0 = KgState(z=field_from_values(grid, zv), zt=field_from_values(grid, ztv))
    else:
        s0 = paper_initial_data(grid, c)
    m = make_multipliers(grid, c)
    u0, v0 = to_first_order(s0, m)
    return m, twist(u0, v0, 0.0, c)


def _h1_after_run(scheme, c):
    grid = make_grid(1, K)
    m, pair0 = _initial_pair(scheme, grid, c)
    final = evolve(scheme, pair0, STEPS * TAU, StepContext(grid, m, TAU))
    return sobolev_norm(reconstruct_z(final), 1.0)


def _key(scheme, c):
    return f"{scheme.value}:c={c!r}"


@pytest.mark.parametrize("c", C_VALUES)
@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_trajectory_matches_golden(scheme, c):
    golden = json.loads(GOLDEN.read_text())
    assert _h1_after_run(scheme, c) == pytest.approx(golden[_key(scheme, c)], rel=1e-13, abs=0)


if __name__ == "__main__":
    values = {_key(s, c): _h1_after_run(s, c) for s in SchemeId for c in C_VALUES}
    GOLDEN.write_text(json.dumps(values, indent=2) + "\n")
    print(f"wrote {len(values)} values to {GOLDEN}")
