import cmath

import numpy as np
import pytest

from kguniform import (
    KgState,
    constant_field,
    cubic,
    energy,
    field_from_values,
    from_first_order,
    kernel_bundle,
    kernel_omega,
    kernel_psi,
    kernel_theta,
    kernel_vartheta,
    make_multipliers,
    oscillatory_block,
    phase_factor,
    phi,
    phi_moment,
    reconstruct_z,
    sobolev_norm,
    to_first_order,
    twist,
    untwist,
    zero_field,
)
from kguniform.model import _dd_phi1
from kguniform.verify import (
    check_block_quadrature,
    check_omega_quadrature,
    random_field,
)

from conftest import random_real_state


def test_phase_factor_accuracy():
    # l * c^2 * t = -25_000_000 exactly; oracle reduction in 40-digit arithmetic
    import mpmath

    c, t, l = 10000.0, 0.0625, -4
    with mpmath.workdps(40):
        ref = complex(mpmath.e ** (1j * mpmath.mpf(l * c * c * t)))
    assert abs(phase_factor(l, c, t) - ref) < 1e-11
    assert abs(phase_factor(2, c, 0.0) - 1.0) == 0.0


# ---------------------------------------------------------------------------
# first-order reformulation


def test_to_first_order_trivial(grid64):
    m = make_multipliers(grid64, 2.0)
    z = field_from_values(grid64, np.cos(grid64.x))
    s = KgState(z=z, zt=zero_field(grid64))
    u, v = to_first_order(s, m)
    assert sobolev_norm(u - z, 1.0) < 1e-13
    assert sobolev_norm(v - z, 1.0) < 1e-13

    s0 = KgState(z=zero_field(grid64), zt=zero_field(grid64))
    u0, v0 = to_first_order(s0, m)
    assert sobolev_norm(u0, 0.0) == 0.0 and sobolev_norm(v0, 0.0) == 0.0


def test_first_order_roundtrip(grid64, rng):
    m = make_multipliers(grid64, 3.7)
    s = random_real_state(grid64, rng)
    u, v = to_first_order(s, m)
    back = from_first_order(u, v, m)
    assert sobolev_norm(back.z - s.z, 1.0) < 1e-12
    assert sobolev_norm(back.zt - s.zt, 1.0) < 1e-12 * max(1.0, sobolev_norm(s.zt, 1.0))
    # real data gives u == v
    assert sobolev_norm(u - v, 1.0) < 1e-12


def test_from_first_order_single_mode(grid64):
    c = 3.0
    m = make_multipliers(grid64, c)
    u = field_from_values(grid64, np.exp(1j * grid64.x))
    s = from_first_order(u, zero_field(grid64), m)
    i1 = list(grid64.wavenumbers).index(1.0)
    assert s.z.coeffs[i1] == pytest.approx(0.5, abs=1e-14)
    expect_zt = 0.5j * c * np.sqrt(c * c + 1.0)
    assert s.zt.coeffs[i1] == pytest.approx(expect_zt, abs=1e-12)


def test_twist_untwist(grid64, rng):
    u = random_field(grid64, rng)
    v = random_field(grid64, rng)
    p = twist(u, v, 0.0, 5.0)
    assert np.array_equal(p.u_star.coeffs, u.coeffs)
    p = twist(u, v, 0.37, 5.0)
    uu, vv = untwist(p)
    assert np.max(np.abs(uu.coeffs - u.coeffs)) < 1e-14
    assert np.max(np.abs(vv.coeffs - v.coeffs)) < 1e-14
    # unimodular factor leaves coefficient magnitudes alone
    assert np.max(np.abs(np.abs(p.u_star.coeffs) - np.abs(u.coeffs))) < 1e-14


def test_reconstruct_consistency(grid64, rng):
    c = 7.0
    m = make_multipliers(grid64, c)
    s = random_real_state(grid64, rng)
    s.t = 0.37
    u, v = to_first_order(s, m)
    p = twist(u, v, s.t, c)
    assert sobolev_norm(reconstruct_z(p) - s.z, 1.0) < 1e-12


def test_reconstruct_constants(grid64):
    a = 0.3 - 0.2j
    t, c = 0.21, 4.0
    p = twist(constant_field(grid64, a), zero_field(grid64), 0.0, c)
    p.t = t  # u*, v* given at time t directly
    z = reconstruct_z(p)
    assert z.coeffs[0] == pytest.approx(0.5 * phase_factor(1, c, t) * a, abs=1e-13)
    p0 = twist(constant_field(grid64, 0.5), constant_field(grid64, 0.5), 0.0, c)
    assert reconstruct_z(p0).coeffs[0] == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# cubic nonlinearity


def test_cubic_values(grid64):
    assert sobolev_norm(cubic(zero_field(grid64)), 0.0) == 0.0
    assert cubic(constant_field(grid64, 2.0)).coeffs[0] == pytest.approx(8.0, abs=1e-13)
    out = cubic(constant_field(grid64, 1.0 + 1.0j))
    assert out.coeffs[0] == pytest.approx(2.0 + 2.0j, abs=1e-13)


# ---------------------------------------------------------------------------
# oscillatory kernels


def test_kernel_psi_trivial(grid64, rng):
    v = random_field(grid64, rng)
    assert sobolev_norm(kernel_psi(0.1, 0.0, v, 2.0), 1.0) == 0.0
    assert sobolev_norm(kernel_psi(0.1, 0.3, zero_field(grid64), 2.0), 1.0) == 0.0


def test_kernel_psi_small_phase_limit(grid64, rng):
    # phi_1 -> 1: Psi -> t (e^{2ic^2 tn} v^3 + 3 e^{-2ic^2 tn}|v|^2 vbar + e^{-4ic^2 tn} vbar^3)
    c, t_n, t = 1e-3, 0.3, 1e-3
    v = random_field(grid64, rng, decay=2.0)
    vv = v.values()
    p2 = phase_factor(2, c, t_n)
    m4 = phase_factor(-4, c, t_n)
    lim = t * (
        p2 * vv**3
        + 3 * p2.conjugate() * np.abs(vv) ** 2 * np.conj(vv)
        + m4 * np.conj(vv) ** 3
    )
    out = kernel_psi(t_n, t, v, c)
    assert np.max(np.abs(out.values() - lim)) < 1e-7 * max(1.0, np.max(np.abs(lim)))


def test_kernel_vartheta_limit_and_bound(grid64, rng):
    v = random_field(grid64, rng, decay=2.0)
    assert sobolev_norm(kernel_vartheta(0.2, 0.01, zero_field(grid64), 3.0), 1.0) == 0.0
    # c^2 tau -> 0: ratios -> 1/2
    c, t_n, tau = 1e-3, 0.3, 1e-3
    vv = v.values()
    p2 = phase_factor(2, c, t_n)
    m4 = phase_factor(-4, c, t_n)
    lim = 0.5 * (
        p2 * vv**3
        + 3 * p2.conjugate() * np.abs(vv) ** 2 * np.conj(vv)
        + m4 * np.conj(vv) ** 3
    )
    out = kernel_vartheta(t_n, tau, v, c)
    assert np.max(np.abs(out.values() - lim)) < 1e-7 * max(1.0, np.max(np.abs(lim)))
    # |phi_2(iy)| <= 1/2 gives a c-uniform bound by the cube norms
    for c in (1.0, 1e4):
        g = v.grid
        n = g.n_points
        cap = 0.5 * (
            sobolev_norm(field_from_values(g, vv**3), 1.0)
            + 3 * sobolev_norm(field_from_values(g, np.abs(vv) ** 2 * np.conj(vv)), 1.0)
            + sobolev_norm(field_from_values(g, np.conj(vv) ** 3), 1.0)
        )
        got = sobolev_norm(kernel_vartheta(t_n, 0.01, v, c), 1.0)
        assert np.isfinite(got) and got <= cap + 1e-12


def test_dd_phi1_branches_agree():
    # divided-difference series vs direct quotient near the cutoff
    for x in (0.24, 0.26):
        for (a, b) in ((2j * x, 4j * x), (-2j * x, 0.0), (-2j * x, -6j * x)):
            series_val = _dd_phi1(a * 0.999, b * 0.999)
            direct_val = (phi(1, b * 0.999) - phi(1, a * 0.999)) / (b * 0.999 - a * 0.999) if a != b else None
            if direct_val is not None:
                assert abs(series_val - direct_val) < 1e-12


def test_kernel_omega_contract(grid64, rng):
    v = random_field(grid64, rng)
    assert sobolev_norm(kernel_omega(0.1, 0.01, zero_field(grid64), 2.0, 2), 1.0) == 0.0
    with pytest.raises(ValueError, match="l"):
        kernel_omega(0.1, 0.01, v, 2.0, 3)
    res = check_omega_quadrature()
    assert res.passed, res.detail


def test_kernel_theta_trivial_and_decay(grid64, rng):
    m = make_multipliers(grid64, 10.0)
    assert sobolev_norm(kernel_theta(0.0, 0.01, zero_field(grid64), m), 1.0) == 0.0
    # constants are killed by (c<grad>_c^-1 - 1)
    out = kernel_theta(0.0, 0.01, constant_field(grid64, 0.7 + 0.1j), m)
    assert sobolev_norm(out, 1.0) < 1e-14
    # ||theta||_1 decays like c^-2
    v = random_field(grid64, rng, decay=3.0)
    norms = []
    for c in (10.0, 100.0, 1000.0):
        mc = make_multipliers(grid64, c)
        norms.append(sobolev_norm(kernel_theta(0.0, 0.01, v, mc), 1.0))
    slope = np.polyfit(np.log10([10.0, 100.0, 1000.0]), np.log10(norms), 1)[0]
    assert -2.3 < slope < -1.7


def test_kernel_bundle_finite(grid64, rng):
    v = random_field(grid64, rng, decay=2.0)
    for c in (0.5, 1.0, 100.0, 1e4):
        m = make_multipliers(grid64, c)
        for tau in (1e-4, 1e-2, 1.0):
            kb = kernel_bundle(0.13, tau, v, m)
            for f in [kb.psi, kb.vartheta, kb.theta, *kb.omega_l.values()]:
                assert np.all(np.isfinite(f.coeffs))


def test_kernels_smooth_across_phi_threshold(grid64, rng):
    # no branch jump where c^2 tau crosses the series cutoff
    v = random_field(grid64, rng, decay=2.0)
    c = 1.0
    for tau0 in (0.05, 0.025):  # 2c^2 tau around 0.1
        a = kernel_omega(0.3, tau0 * (1 - 1e-7), v, c, 2)
        b = kernel_omega(0.3, tau0 * (1 + 1e-7), v, c, 2)
        assert sobolev_norm(a - b, 1.0) < 1e-5 * max(1.0, sobolev_norm(a, 1.0))


# ---------------------------------------------------------------------------
# oscillatory block


def test_block_zero(grid64):
    m = make_multipliers(grid64, 3.0)
    out = oscillatory_block(0.01, 0.2, zero_field(grid64), m)
    assert sobolev_norm(out, 1.0) == 0.0


def _scalar_block_reference(tau, t_n, a, c):
    """Independent scalar transcription of the block for a single k=0 mode,
    where A_c = 0, Delta = 0 and c<grad>_c^-1 = 1."""
    p2 = cmath.exp(2j * c * c * t_n)
    m2 = p2.conjugate()
    m4 = cmath.exp(-4j * c * c * t_n)
    x = 2j * c * c * tau
    ab = a.conjugate()
    mod2 = abs(a) ** 2

    def q(l, shift):
        return (phi(1, (l + shift) * 1j * c * c * tau) - phi(1, l * 1j * c * c * tau)) / (
            shift * 1j * c * c * tau
        )

    def omega(l):
        return p2 * q(l, 2) * a**3 + 3 * m2 * q(l, -2) * mod2 * ab + m4 * q(l, -4) * ab**3

    out = (
        tau * p2 * phi(1, x) * a**3
        + 3 * tau * m2 * phi(1, -x) * mod2 * ab
        + tau * m4 * phi(1, -2 * x) * ab**3
    )
    out += (-0.375j * tau * tau) * (
        p2 * a * a * (3 * phi_moment(x) * mod2 * a + omega(2))
        + m2 * ab * ab * (3 * phi_moment(-x) * mod2 * a + omega(-2))
        - 2 * m2 * mod2 * (3 * phi_moment(-x) * mod2 * ab + omega(2).conjugate())
        - m4 * ab * ab * (3 * phi_moment(-2 * x) * mod2 * ab + omega(4).conjugate())
    )
    return out


def test_block_scalar_mode(grid64):
    tau, t_n, c = 0.02, 0.31, 3.0
    a = 0.4 - 0.25j
    out = oscillatory_block(tau, t_n, constant_field(grid64, a), make_multipliers(grid64, c))
    ref = _scalar_block_reference(tau, t_n, a, c)
    assert out.coeffs[0] == pytest.approx(ref, abs=1e-14)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-14


def test_block_vs_quadrature():
    res = check_block_quadrature()
    assert res.passed, res.detail


# ---------------------------------------------------------------------------
# energy


def test_energy_values(grid64):
    m = make_multipliers(grid64, 1.0)
    s = KgState(z=zero_field(grid64), zt=zero_field(grid64))
    assert energy(s, m) == 0.0
    a = 0.7
    s = KgState(z=constant_field(grid64, a), zt=zero_field(grid64))
    assert energy(s, m) == pytest.approx(2 * np.pi * (0.5 * a * a - 0.25 * a**4), rel=1e-13)


def test_energy_rejects_complex(grid64):
    s = KgState(z=constant_field(grid64, 1.0j), zt=zero_field(grid64))
    with pytest.raises(ValueError, match="real"):
        energy(s, make_multipliers(grid64, 1.0))
