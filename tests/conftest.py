import numpy as np
import pytest

from kguniform import KgState, SpectralField, field_from_values, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid64():
    return make_grid(1, 64)


def random_field(grid, rng, decay=1.0):
    """Random complex field with |coeff_k| ~ (1 + k^2)^(-decay/2)."""
    n = grid.n_points
    co = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (
        1.0 + grid.wavenumbers**2
    ) ** (-decay / 2.0)
    return SpectralField(grid, co)


def random_real_state(grid, rng, scale=0.3):
    """Random smooth real-valued (z, z_t) pair."""
    n = grid.n_points
    x = grid.x

    def smooth():
        out = np.zeros(n)
        for k in range(1, 6):
            out += rng.standard_normal() * np.cos(k * x) + rng.standard_normal() * np.sin(k * x)
        return scale * out / 5.0

    return KgState(
        z=field_from_values(grid, smooth()),
        zt=field_from_values(grid, smooth()),
        t=0.0,
    )


def const_field(grid, value=0.0):
    """The constant field `value`: its one nonzero coefficient is at k = 0."""
    coeffs = np.zeros(grid.n_points, dtype=np.complex128)
    coeffs[0] = value
    return SpectralField(grid, coeffs)
