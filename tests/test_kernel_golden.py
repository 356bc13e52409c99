"""Golden values for the oscillatory kernels, the second-order block and the
Duhamel oracle.

The stored numbers are H^1 norms at K = 64 of

* kernel_psi, kernel_vartheta, kernel_omega (l in {-4, -2, 2}), kernel_theta
  and oscillatory_block at c in {1, 1e4}, and
* duhamel_oracle_step at c in {1, 100}.

The kernels act on a genuinely complex profile, the block and the oracle on
the twisted paper profile.  A refactor of the branch sums or of the
second-order symbols must reproduce them to 1e-13 relative.

Re-record (only when a change of the numbers is intended) with

    PYTHONPATH=src python tests/test_kernel_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from kguniform import (
    StepContext,
    duhamel_oracle_step,
    field_from_values,
    kernel_omega,
    kernel_psi,
    kernel_theta,
    kernel_vartheta,
    make_grid,
    make_multipliers,
    oscillatory_block,
    sobolev_norm,
    to_first_order,
    twist,
)
from kguniform.harness import paper_initial_data

GOLDEN = Path(__file__).parent / "data" / "golden_kernels.json"
K, TAU, T_N = 64, 2.0**-8, 0.3
KERNEL_C = (1.0, 1e4)
ORACLE_C = (1.0, 100.0)


def _complex_profile(grid):
    x = grid.x
    vals = (0.3 + 0.2j) * np.sin(x) / (2.0 + np.cos(x)) + 0.1 * np.cos(3 * x)
    return field_from_values(grid, vals)


def _paper_u_star(grid, m, c):
    u0, v0 = to_first_order(paper_initial_data(grid, c), m)
    return twist(u0, v0, 0.0, c).u_star


def _kernel_fields(c):
    grid = make_grid(1, K)
    m = make_multipliers(grid, c)
    v = _complex_profile(grid)
    out = {
        "psi": kernel_psi(T_N, TAU, v, c),
        "vartheta": kernel_vartheta(T_N, TAU, v, c),
        "theta": kernel_theta(T_N, TAU, v, m),
        "block": oscillatory_block(TAU, T_N, _paper_u_star(grid, m, c), m),
    }
    for l in (-4, -2, 2):
        out[f"omega{l}"] = kernel_omega(T_N, TAU, v, c, l)
    return out


def _oracle_field(c):
    grid = make_grid(1, K)
    m = make_multipliers(grid, c)
    return duhamel_oracle_step(_paper_u_star(grid, m, c), T_N, StepContext(grid, m, TAU), nodes=64)


def _values():
    values = {}
    for c in KERNEL_C:
        for name, f in _kernel_fields(c).items():
            values[f"{name}:c={c!r}"] = sobolev_norm(f, 1.0)
    for c in ORACLE_C:
        values[f"oracle:c={c!r}"] = sobolev_norm(_oracle_field(c), 1.0)
    return values


@pytest.mark.parametrize("c", KERNEL_C)
def test_kernels_match_golden(c):
    golden = json.loads(GOLDEN.read_text())
    for name, f in _kernel_fields(c).items():
        key = f"{name}:c={c!r}"
        assert sobolev_norm(f, 1.0) == pytest.approx(golden[key], rel=1e-13, abs=0), key


@pytest.mark.parametrize("c", ORACLE_C)
def test_oracle_matches_golden(c):
    golden = json.loads(GOLDEN.read_text())
    assert sobolev_norm(_oracle_field(c), 1.0) == pytest.approx(
        golden[f"oracle:c={c!r}"], rel=1e-13, abs=0
    )


if __name__ == "__main__":
    values = _values()
    GOLDEN.write_text(json.dumps(values, indent=2) + "\n")
    print(f"wrote {len(values)} values to {GOLDEN}")
