import cmath

import numpy as np
import pytest

from kguniform import (
    KgState,
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
)
from kguniform import verify
from kguniform.integrators import _duhamel_panels
from kguniform.model import _omega_weights, _phi_table
from kguniform.verify import check_block_quadrature, check_omega_quadrature

from conftest import const_field, random_field, random_real_state


def test_phase_factor_accuracy():
    # l * c^2 * t = -25_000_000 exactly; oracle reduction in 40-digit arithmetic
    import mpmath

    c, t, l = 10000.0, 0.0625, -4
    with mpmath.workdps(40):
        ref = complex(mpmath.e ** (1j * mpmath.mpf(l * c * c * t)))
    assert abs(phase_factor(l, c, t) - ref) < 1e-11
    assert abs(phase_factor(2, c, 0.0) - 1.0) == 0.0

    # an array of times gives the scalar calls' phases bitwise, and so does a
    # run's table of step times t + k tau, formed in extended precision
    times = np.longdouble(0.37) + np.linspace(0.0, 0.1, 257)
    tau = 0.1 * 2.0**-8
    steps = np.longdouble(0.37) + np.arange(257) * np.longdouble(tau)
    for cc in (1.0, 7.3, 100.0, 1e4):
        for ll in (-4, -1, 1, 2):
            ph = phase_factor(ll, cc, times)
            assert ph.shape == times.shape
            assert np.array_equal(ph, [phase_factor(ll, cc, t) for t in times])
            table = phase_factor(ll, cc, 0.37, np.arange(257), tau)
            assert np.array_equal(table, [phase_factor(ll, cc, t) for t in steps])


# ---------------------------------------------------------------------------
# first-order reformulation


def test_to_first_order_trivial(grid64):
    m = make_multipliers(grid64, 2.0)
    z = field_from_values(grid64, np.cos(grid64.x))
    s = KgState(z=z, zt=const_field(grid64))
    u, v = to_first_order(s, m)
    assert sobolev_norm(u - z, 1.0) < 1e-13
    assert sobolev_norm(v - z, 1.0) < 1e-13

    s0 = KgState(z=const_field(grid64), zt=const_field(grid64))
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
    s = from_first_order(u, const_field(grid64), m)
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
    p = twist(const_field(grid64, a), const_field(grid64), 0.0, c)
    p.t = t  # u*, v* given at time t directly
    z = reconstruct_z(p)
    assert z.coeffs[0] == pytest.approx(0.5 * phase_factor(1, c, t) * a, abs=1e-13)
    p0 = twist(const_field(grid64, 0.5), const_field(grid64, 0.5), 0.0, c)
    assert reconstruct_z(p0).coeffs[0] == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# oscillatory kernels


def test_kernel_psi_trivial(grid64, rng):
    v = random_field(grid64, rng)
    assert sobolev_norm(kernel_psi(0.1, 0.0, v, 2.0), 1.0) == 0.0
    assert sobolev_norm(kernel_psi(0.1, 0.3, const_field(grid64), 2.0), 1.0) == 0.0


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
    assert sobolev_norm(kernel_vartheta(0.2, 0.01, const_field(grid64), 3.0), 1.0) == 0.0
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
    import mpmath

    # the Omega quotients (phi_1(x_b) - phi_1(x_a)) / (x_b - x_a) of the phi
    # table, a = l and b = l + d: the x phi_2(x) form below
    # max(|x_a|, |x_b|) = 1 and the plain quotient above it agree with the
    # direct quotient on either side of the switch
    ds = [2, -2, -4]

    def at(j):  # the table entry of x_j
        return (j + 8) // 2

    for (l, d) in ((2, 2), (-2, 2), (-2, -4)):
        top = max(abs(l), abs(l + d))
        for s in (0.999, 1.001):
            table = _phi_table(1.0, s / top)
            xa, xb = table[0][at(l)], table[0][at(l + d)]
            assert max(abs(xa), abs(xb)) == pytest.approx(s)
            direct = (phi(1, xb) - phi(1, xa)) / (xb - xa)
            got = _omega_weights(table, (l,))[0][ds.index(d)]
            assert abs(got - direct) < 1e-12

    # against 40-digit arithmetic over c^2 tau in [1e-9, 1e7], for every pair
    # (l, l + d) that kernel_omega (l = -4, -2, 2) and the UEI2 step (l = 4) use
    def phi1(x):
        return mpmath.expm1(x) / x if x != 0 else mpmath.mpf(1)

    ls = [-4, -2, 2, 4]
    worst = 0.0
    with mpmath.workdps(40):
        for c2tau in np.geomspace(1e-9, 1e7, 65):
            table = _phi_table(1.0, c2tau)
            x = table[0]
            for l, row in zip(ls, _omega_weights(table, ls)):
                for d, g in zip(ds, row):
                    ma, mb = mpmath.mpc(x[at(l)]), mpmath.mpc(x[at(l + d)])
                    ref = complex((phi1(mb) - phi1(ma)) / (mb - ma))
                    worst = max(worst, abs(g - ref) / abs(ref))
    assert worst < 5e-14, worst


@pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf")])
def test_kernels_reject_bad_times(grid64, bad):
    v = const_field(grid64)
    m = make_multipliers(grid64, 2.0)
    with pytest.raises(ValueError, match="kernel_psi requires finite t >= 0"):
        kernel_psi(0.1, bad, v, 2.0)
    for tau in (0.0, bad):
        for name, kernel in (
            ("kernel_vartheta", lambda: kernel_vartheta(0.1, tau, v, 2.0)),
            ("kernel_omega", lambda: kernel_omega(0.1, tau, v, 2.0, 2)),
            ("kernel_theta", lambda: kernel_theta(0.1, tau, v, m)),
            ("oscillatory_block", lambda: oscillatory_block(tau, 0.1, v, m)),
        ):
            with pytest.raises(ValueError, match=f"{name} requires finite tau > 0"):
                kernel()
    if np.isfinite(bad):
        return
    # a non-finite start time or c: the phase raises before any NaN is formed
    for kernel in (
        lambda: kernel_psi(bad, 0.01, v, 2.0),
        lambda: kernel_psi(0.1, 0.01, v, bad),
        lambda: kernel_vartheta(bad, 0.01, v, 2.0),
        lambda: kernel_vartheta(0.1, 0.01, v, bad),
        lambda: kernel_omega(bad, 0.01, v, 2.0, 2),
        lambda: kernel_omega(0.1, 0.01, v, bad, -4),
        lambda: oscillatory_block(0.01, bad, v, m),
    ):
        with pytest.raises(ValueError, match=r"phase_factor requires finite l c\^2 t, got l=2"):
            kernel()


def test_kernel_omega_contract(grid64, rng):
    v = random_field(grid64, rng)
    assert sobolev_norm(kernel_omega(0.1, 0.01, const_field(grid64), 2.0, 2), 1.0) == 0.0
    with pytest.raises(ValueError, match="l"):
        kernel_omega(0.1, 0.01, v, 2.0, 3)
    # an index equal to an allowed one but not an integer is rejected by name
    with pytest.raises(ValueError, match=r"invalid oscillation index l=2\.0"):
        kernel_omega(0.1, 0.01, v, 2.0, 2.0)
    res = check_omega_quadrature()
    assert res.passed, res.detail


def test_omega_quadrature_fails_on_mutated_kernels(monkeypatch):
    # the check passes, and fails on Omega_l's weights scaled by 1 + 1e-11,
    # on its branch phases taken at t = 0 and on its branches 2 and -2
    # swapped; _psi_raw keeps verify's own phase_factor, so only the closed
    # form moves
    from kguniform import model

    res = check_omega_quadrature()
    assert res.passed, res.detail
    scale = 1 + 1e-11
    mutants = [
        ("_omega_weights", lambda t, ls: [[scale * w for w in ws] for ws in _omega_weights(t, ls)]),
        ("phase_factor", lambda l, c, t: phase_factor(l, c, 0.0)),
        ("_omega_weights", lambda t, ls: [[w2, w1, w3] for w1, w2, w3 in _omega_weights(t, ls)]),
    ]
    for name, mutant in mutants:
        with monkeypatch.context() as mp:
            mp.setattr(model, name, mutant)
            res = check_omega_quadrature()
        assert not res.passed, (name, res.detail)


def test_kernel_theta_trivial_and_decay(grid64, rng):
    m = make_multipliers(grid64, 10.0)
    assert sobolev_norm(kernel_theta(0.0, 0.01, const_field(grid64), m), 1.0) == 0.0
    # constants are killed by (c<grad>_c^-1 - 1)
    out = kernel_theta(0.0, 0.01, const_field(grid64, 0.7 + 0.1j), m)
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
    out = oscillatory_block(0.01, 0.2, const_field(grid64), m)
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
    out = oscillatory_block(tau, t_n, const_field(grid64, a), make_multipliers(grid64, c))
    ref = _scalar_block_reference(tau, t_n, a, c)
    assert out.coeffs[0] == pytest.approx(ref, abs=1e-14)
    assert np.max(np.abs(out.coeffs[1:])) < 1e-14


def test_block_vs_quadrature(monkeypatch):
    res = check_block_quadrature()
    assert res.passed, res.detail

    # a defect that is not finite fails the check, naming c and tau, instead
    # of dropping out of the slope fit
    block = verify.oscillatory_block
    bad_tau = 2.0**-9

    def nan_at_one_tau(tau, t_n, u, m):
        out = block(tau, t_n, u, m)
        if tau == bad_tau:
            out.coeffs[:] = np.nan
        return out

    monkeypatch.setattr(verify, "oscillatory_block", nan_at_one_tau)
    res = check_block_quadrature()
    assert not res.passed
    assert "c=10:" in res.detail and f"tau={bad_tau:g}" in res.detail, res.detail


def _block_quadrature_loop(tau, t_n, u, m):
    """The quadrature node by node, summed in node order; also returns the
    sum of the terms' magnitudes, the scale of any summation's round-off."""
    n = u.grid.n_points
    c = m.c
    uv = u.values()
    uau = np.abs(uv) ** 2 * uv
    centres, _, offsets, weights = _duhamel_panels(tau, m, 32)
    nodes = (centres[:, None] + offsets).ravel()
    acc = np.zeros(n, dtype=complex)
    mag = np.zeros(n)
    for s, w, psi_s in zip(nodes, np.tile(weights, len(centres)), verify._psi_raw(t_n, nodes, uv, c)):
        inner = 3.0 * s * uau + psi_s
        ut_hat = np.exp(1j * s * m.a_c) * u.coeffs - 0.125j * m.c_inv * (np.fft.fft(inner) / n)
        wv = np.fft.ifft(ut_hat) * n
        ph = phase_factor(1, c, t_n + s)
        w3 = wv**3
        wau = np.abs(wv) ** 2 * wv
        g = ph**2 * w3 + 3.0 * ph.conjugate() ** 2 * np.conj(wau) + ph.conjugate() ** 4 * np.conj(w3)
        term = w * np.exp(1j * (tau - s) * m.a_c) * (np.fft.fft(g) / n)
        acc += term
        mag += np.abs(term)
    return acc, mag


def test_block_quadrature_uses_the_oracle_panel_rule(monkeypatch):
    # check_block_quadrature's grid (K = 64, c = 10) at tau = 2^-6 .. 2^-12:
    # 4 (c^2 + max A_c) at 12 rad per 16-node panel, at least two panels
    seen = []
    psi = verify._psi_raw

    def counting_psi(t_n, s, vv, c):
        seen.append(s.size)
        return psi(t_n, s, vv, c)

    monkeypatch.setattr(verify, "_psi_raw", counting_psi)
    check_block_quadrature()
    assert seen == [16 * p for p in (4, 2, 2, 2, 2, 2, 2)]


@pytest.mark.parametrize("c, t_n", [(10.0, 0.0), (10.0, 0.37), (100.0, 0.37)])
def test_block_quadrature_matches_its_per_node_loop(grid64, c, t_n):
    # the stacked quadrature sums the same terms in another order: it agrees
    # to a few units of round-off of the largest sum of term magnitudes
    from kguniform.harness import paper_initial_data

    m = make_multipliers(grid64, c)
    u, _ = to_first_order(paper_initial_data(grid64, c), m)
    for tau in (2.0**-6, 2.0**-9):
        want, mag = _block_quadrature_loop(tau, t_n, u, m)
        got = verify._block_quadrature(tau, t_n, u, m).coeffs
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(mag), tau


# ---------------------------------------------------------------------------
# energy


def test_energy_values(grid64):
    m = make_multipliers(grid64, 1.0)
    s = KgState(z=const_field(grid64), zt=const_field(grid64))
    assert energy(s, m) == 0.0
    a = 0.7
    s = KgState(z=const_field(grid64, a), zt=const_field(grid64))
    assert energy(s, m) == pytest.approx(2 * np.pi * (0.5 * a * a - 0.25 * a**4), rel=1e-13)


def test_energy_rejects_complex(grid64):
    s = KgState(z=const_field(grid64, 1.0j), zt=const_field(grid64))
    with pytest.raises(ValueError, match="real"):
        energy(s, make_multipliers(grid64, 1.0))
