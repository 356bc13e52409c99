import cmath

import numpy as np
import pytest

from kguniform import (
    KgState,
    ReferenceUnreliableError,
    SchemeId,
    StepContext,
    constant_field,
    duhamel_oracle_step,
    energy,
    evolve,
    field_from_values,
    from_first_order,
    make_multipliers,
    phi,
    reference_solution,
    sobolev_norm,
    step_largec_uei1,
    step_lie_limit,
    step_strang_limit,
    step_uei1,
    step_uei1_real,
    step_uei2_real,
    to_first_order,
    twist,
    untwist,
    zero_field,
)
from kguniform.harness import fit_order, paper_initial_data
from kguniform.integrators import _panel_rule
from kguniform.model import TwistedPair
from kguniform.verify import random_field

from conftest import random_real_state


def _standard_pair(grid, c):
    m = make_multipliers(grid, c)
    s0 = paper_initial_data(grid, c)
    u0, v0 = to_first_order(s0, m)
    return m, s0, twist(u0, v0, 0.0, c)


def test_every_scheme_has_one_stepper():
    from kguniform.integrators import _STEPPERS

    assert set(_STEPPERS) == set(SchemeId)


# ---------------------------------------------------------------------------
# single steps


def test_steps_vanish_on_zero(grid64):
    c = 2.0
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, 0.01)
    z = zero_field(grid64)
    p = TwistedPair(z, z, 0.0, c)
    out = step_uei1(p, ctx)
    assert sobolev_norm(out.u_star, 1.0) == 0.0
    assert out.t == pytest.approx(0.01)
    assert sobolev_norm(step_uei1_real(z, 0.0, ctx), 1.0) == 0.0
    assert sobolev_norm(step_uei2_real(z, 0.0, ctx), 1.0) == 0.0
    u2, v2 = step_lie_limit(z, z, ctx)
    assert sobolev_norm(u2, 1.0) == 0.0 and sobolev_norm(v2, 1.0) == 0.0
    assert sobolev_norm(step_strang_limit(z, ctx), 1.0) == 0.0
    out = step_largec_uei1(p, ctx)
    assert sobolev_norm(out.u_star, 1.0) == 0.0


def test_uei1_preserves_real_symmetry_and_matches_real_variant(grid64, rng):
    c = 5.0
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, 0.005)
    s = random_real_state(grid64, rng)
    u, v = to_first_order(s, m)
    p = twist(u, v, 0.0, c)
    out = step_uei1(p, ctx)
    assert sobolev_norm(out.u_star - out.v_star, 1.0) < 1e-12
    out_real = step_uei1_real(p.u_star, 0.0, ctx)
    assert sobolev_norm(out.u_star - out_real, 1.0) < 1e-12


def test_uei1_scalar_mode(grid64):
    # single constant mode: every operator reduces to its k = 0 scalar
    tau, t_n, c = 0.02, 0.13, 3.0
    a = 0.4 - 0.25j
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, tau)
    p = TwistedPair(constant_field(grid64, a), constant_field(grid64, a), t_n, c)
    out = step_uei1(p, ctx)
    x = 2j * c * c * tau
    p2 = cmath.exp(2j * c * c * t_n)
    ref = cmath.exp(-0.375j * tau * abs(a) ** 2) * a - 0.125j * tau * (
        p2 * phi(1, x) * a**3
        + 3 * p2.conjugate() * phi(1, -x) * abs(a) ** 2 * a.conjugate()
        + p2.conjugate() ** 2 * phi(1, -2 * x) * a.conjugate() ** 3
    )
    assert out.u_star.coeffs[0] == pytest.approx(ref, abs=1e-14)
    assert np.max(np.abs(out.u_star.coeffs[1:])) < 1e-14


def test_uei1_scalar_mode_complex_pair(grid64):
    # u != v pins the cross coefficients of the coupled update
    tau, t_n, c = 0.02, 0.13, 3.0
    a = 0.4 - 0.25j
    b = -0.1 + 0.3j
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, tau)
    p = TwistedPair(constant_field(grid64, a), constant_field(grid64, b), t_n, c)
    out = step_uei1(p, ctx)
    x = 2j * c * c * tau
    p2 = cmath.exp(2j * c * c * t_n)
    m2, m4 = p2.conjugate(), p2.conjugate() ** 2

    def one(s, o):
        return cmath.exp(-0.125j * tau * (abs(s) ** 2 + 2 * abs(o) ** 2)) * s - 0.125j * tau * (
            p2 * phi(1, x) * s * s * o
            + m2 * phi(1, -x) * (2 * abs(s) ** 2 + abs(o) ** 2) * o.conjugate()
            + m4 * phi(1, -2 * x) * o.conjugate() ** 2 * s.conjugate()
        )

    assert out.u_star.coeffs[0] == pytest.approx(one(a, b), abs=1e-14)
    assert out.v_star.coeffs[0] == pytest.approx(one(b, a), abs=1e-14)


def test_uei1_complex_data_self_convergence(grid64, rng):
    # coupled (u*, v*) evolution on genuinely complex data: first order
    c, T = 5.0, 0.1
    m = make_multipliers(grid64, c)
    zv = (0.3 + 0.2j) * np.sin(grid64.x) / (2.0 + np.cos(grid64.x))
    ztv = c * c * 0.2 * np.cos(2 * grid64.x) / (2.0 + np.cos(grid64.x))
    s0 = KgState(z=field_from_values(grid64, zv), zt=field_from_values(grid64, ztv))
    u0, v0 = to_first_order(s0, m)
    assert sobolev_norm(u0 - v0, 1.0) > 1e-3  # really complex data
    pair0 = twist(u0, v0, 0.0, c)
    pts = []
    for me in (4, 5, 6, 7):
        tau = T * 2.0**-me
        a = evolve(SchemeId.UEI1, pair0, T, StepContext(grid64, m, tau))
        b = evolve(SchemeId.UEI1, pair0, T, StepContext(grid64, m, tau / 2))
        pts.append((tau, sobolev_norm(a.u_star - b.u_star, 1.0) + sobolev_norm(a.v_star - b.v_star, 1.0)))
    assert 0.8 <= fit_order(pts) <= 1.3


def test_uei2_step_equals_public_kernel_assembly(grid64):
    # the fused stepper must agree with the step assembled from the public
    # kernel operations, term by term
    from kguniform import (
        apply_symbol,
        exp_A_c,
        field_from_values,
        kernel_theta,
        kernel_vartheta,
        oscillatory_block,
    )

    c, tau, t_n = 10.0, 0.01, 0.37
    m = make_multipliers(grid64, c)
    s0 = paper_initial_data(grid64, c)
    u, _ = to_first_order(s0, m)
    ctx = StepContext(grid64, m, tau)

    U = exp_A_c(0.5 * tau, m, u)
    Up = U.values()
    term1 = exp_A_c(
        0.5 * tau, m, field_from_values(grid64, np.exp(-0.375j * tau * np.abs(Up) ** 2) * Up)
    )
    term2 = -0.375j * tau * apply_symbol(
        m.c_inv - 1.0,
        exp_A_c(0.5 * tau, m, field_from_values(grid64, np.abs(Up) ** 2 * Up)),
    )
    term3 = tau * tau * kernel_theta(t_n, tau, U, m)
    up = u.values()
    xw = apply_symbol(m.c_inv, kernel_vartheta(t_n, tau, u, c)).values()
    term4 = (-3.0 / 64.0) * tau * tau * apply_symbol(
        m.c_inv,
        field_from_values(grid64, 2.0 * np.abs(up) ** 2 * xw - up * up * np.conj(xw)),
    )
    term5 = -0.125j * apply_symbol(m.c_inv, oscillatory_block(tau, t_n, u, m))
    assembled = term1 + term2 + term3 + term4 + term5
    fast = step_uei2_real(u, t_n, ctx)
    assert sobolev_norm(fast - assembled, 1.0) < 1e-13 * max(1.0, sobolev_norm(fast, 1.0))


def test_uei2_local_defect_order(grid64):
    # quick check at c = 1 (the full two-c slope test lives in acceptance)
    c = 1.0
    m, s0, p0 = _standard_pair(grid64, c)
    pts1, pts2 = [], []
    for me in (6, 8, 10):
        tau = 2.0**-me
        ctx = StepContext(grid64, m, tau)
        oracle = duhamel_oracle_step(p0.u_star, 0.0, ctx, nodes=64)
        pts1.append((tau, sobolev_norm(step_uei1_real(p0.u_star, 0.0, ctx) - oracle, 1.0)))
        pts2.append((tau, sobolev_norm(step_uei2_real(p0.u_star, 0.0, ctx) - oracle, 1.0)))
    assert fit_order(pts1) >= 1.8
    assert fit_order(pts2) >= 2.7


def test_uei2_approaches_strang_step(grid64):
    # one UEI2 step vs one Strang step differ by O(1/c) for tau*c >= 1
    tau = 0.01
    diffs = []
    for c in (100.0, 1000.0):
        m, s0, p0 = _standard_pair(grid64, c)
        ctx = StepContext(grid64, m, tau)
        a = step_uei2_real(p0.u_star, 0.0, ctx)
        b = step_strang_limit(p0.u_star, ctx)
        diffs.append(sobolev_norm(a - b, 1.0))
    assert diffs[1] <= diffs[0] / 50.0


def test_lie_step_properties(grid64, rng):
    c = 2.0
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, 0.02)
    a = 0.7 - 0.4j
    ua, va = step_lie_limit(constant_field(grid64, a), constant_field(grid64, a), ctx)
    ref = cmath.exp(-0.375j * 0.02 * abs(a) ** 2) * a
    assert ua.coeffs[0] == pytest.approx(ref, abs=1e-14)
    u = random_field(grid64, rng)
    v = random_field(grid64, rng)
    un, vn = step_lie_limit(u, v, ctx)
    assert sobolev_norm(un, 0.0) == pytest.approx(sobolev_norm(u, 0.0), rel=1e-12)
    assert sobolev_norm(vn, 0.0) == pytest.approx(sobolev_norm(v, 0.0), rel=1e-12)


def test_strang_step_constant_and_self_convergence(grid64):
    ctx = StepContext(grid64, make_multipliers(grid64, 2.0), 0.02)
    a = 0.5 + 0.3j
    out = step_strang_limit(constant_field(grid64, a), ctx)
    assert out.coeffs[0] == pytest.approx(cmath.exp(-0.375j * 0.02 * abs(a) ** 2) * a, abs=1e-14)

    # second-order self-convergence on smooth data for the limit equation
    u0 = field_from_values(grid64, (1.0 + 0.5j * np.sin(grid64.x)) / (2.0 + np.cos(grid64.x)))
    m = make_multipliers(grid64, 1.0)
    T = 0.5
    pts = []
    for me in (3, 4, 5, 6):
        tau = T * 2.0**-me
        run = lambda dt: evolve(
            SchemeId.STRANG_LIMIT,
            TwistedPair(u0, u0, 0.0, 1.0),
            T,
            StepContext(grid64, m, dt),
        ).u_star
        pts.append((tau, sobolev_norm(run(tau) - run(tau / 2), 1.0)))
    assert fit_order(pts) >= 1.8


def test_largec_close_to_uei1(grid64):
    c, tau = 1e4, 0.01
    m, s0, p0 = _standard_pair(grid64, c)
    ctx = StepContext(grid64, m, tau)
    a = step_uei1(p0, ctx)
    b = step_largec_uei1(p0, ctx)
    assert sobolev_norm(a.u_star - b.u_star, 1.0) <= 1e-6 * sobolev_norm(p0.u_star, 1.0)
    # linear part is an isometry, nonlinear phase unimodular: mass conserved
    assert sobolev_norm(b.u_star, 0.0) == pytest.approx(sobolev_norm(p0.u_star, 0.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Duhamel oracle


def test_panel_rule_partial_weights():
    # exact partial integrals of every monomial the rule resolves:
    # int_{-1}^{x_i} x^p dx for p < q
    for q in (16, 32, 64):
        xg, wg, pm = _panel_rule(q)
        for p in range(q):
            ref = (xg ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            np.testing.assert_allclose(pm @ xg**p, ref, rtol=0, atol=1e-13, err_msg=f"q={q} p={p}")


def test_oracle_rejects_few_nodes(grid64):
    ctx = StepContext(grid64, make_multipliers(grid64, 1.0), 0.02)
    with pytest.raises(ValueError, match="nodes"):
        duhamel_oracle_step(zero_field(grid64), 0.0, ctx, nodes=8)


def test_oracle_self_consistency(grid64):
    # one oracle step vs two half steps: defect shrinks at order >= 3.
    # Amplified data and large tau keep the Picard remainder above roundoff.
    c = 1.0
    m = make_multipliers(grid64, c)
    s0 = paper_initial_data(grid64, c)
    u0, _ = to_first_order(s0, m)
    u0 = 2.5 * u0
    pts = []
    for me in (1, 2, 3):
        tau = 2.0**-me
        ctx_full = StepContext(grid64, m, tau)
        ctx_half = StepContext(grid64, m, tau / 2)
        one = duhamel_oracle_step(u0, 0.0, ctx_full, nodes=64)
        half = duhamel_oracle_step(u0, 0.0, ctx_half, nodes=64)
        two = duhamel_oracle_step(half, tau / 2, ctx_half, nodes=64)
        pts.append((tau, sobolev_norm(one - two, 1.0)))
    assert fit_order(pts) >= 3.0


# ---------------------------------------------------------------------------
# evolve


def test_evolve_contracts(grid64):
    c = 3.0
    m, s0, p0 = _standard_pair(grid64, c)
    ctx = StepContext(grid64, m, 0.01)
    assert evolve(SchemeId.UEI1, p0, 0.0, ctx) is p0
    with pytest.raises(ValueError, match="integer multiple"):
        evolve(SchemeId.UEI1, p0, 0.0155, ctx)

    full = evolve(SchemeId.UEI1, p0, 0.08, ctx)
    half = evolve(SchemeId.UEI1, p0, 0.04, ctx)
    again = evolve(SchemeId.UEI1, half, 0.04, ctx)
    assert np.array_equal(full.u_star.coeffs, again.u_star.coeffs)
    assert np.array_equal(full.v_star.coeffs, again.v_star.coeffs)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_evolve_matches_public_steps(grid64, scheme):
    # the single stepper dispatch in evolve and the public step functions
    # must take the same path: 3 steps agree bitwise (dyadic tau, t_0 = 0)
    c, tau = 3.0, 2.0**-7
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, tau)
    x = grid64.x
    zv = (0.3 + 0.2j) * np.sin(x) / (2.0 + np.cos(x))
    ztv = c * c * 0.2 * np.cos(2.0 * x) / (2.0 + np.cos(x))
    complex_pair = twist(
        *to_first_order(KgState(field_from_values(grid64, zv), field_from_values(grid64, ztv)), m),
        0.0,
        c,
    )
    real_pair = _standard_pair(grid64, c)[2]

    pair_steps = {
        SchemeId.UEI1: step_uei1,
        SchemeId.LARGE_C_UEI1: step_largec_uei1,
        SchemeId.LIE_LIMIT: lambda p, ctx: TwistedPair(
            *step_lie_limit(p.u_star, p.v_star, ctx), p.t + ctx.tau, p.c
        ),
    }
    real_steps = {
        SchemeId.UEI1_REAL: step_uei1_real,
        SchemeId.UEI2_REAL: step_uei2_real,
        SchemeId.STRANG_LIMIT: lambda u, t_n, ctx: step_strang_limit(u, ctx),
    }
    if scheme in pair_steps:
        p = complex_pair
        for _ in range(3):
            p = pair_steps[scheme](p, ctx)
        want_u, want_v = p.u_star.coeffs, p.v_star.coeffs
        got = evolve(scheme, complex_pair, 3 * tau, ctx)
    else:
        u = real_pair.u_star
        for k in range(3):
            u = real_steps[scheme](u, k * tau, ctx)
        want_u = want_v = u.coeffs
        got = evolve(scheme, real_pair, 3 * tau, ctx)
    assert np.array_equal(got.u_star.coeffs, want_u)
    assert np.array_equal(got.v_star.coeffs, want_v)


def test_evolve_callback_and_determinism(grid64):
    c = 2.0
    m, s0, p0 = _standard_pair(grid64, c)
    ctx = StepContext(grid64, m, 0.02)
    seen = []
    evolve(SchemeId.UEI2_REAL, p0, 0.1, ctx, callback=lambda k, p: seen.append((k, p.t)))
    assert [k for k, _ in seen] == [1, 2, 3, 4, 5]
    assert seen[-1][1] == pytest.approx(0.1)
    a = evolve(SchemeId.UEI2_REAL, p0, 0.1, ctx)
    b = evolve(SchemeId.UEI2_REAL, p0, 0.1, ctx)
    assert np.array_equal(a.u_star.coeffs, b.u_star.coeffs)


def test_evolve_requires_real_for_real_schemes(grid64, rng):
    c = 2.0
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, 0.01)
    p = TwistedPair(random_field(grid64, rng), random_field(grid64, rng), 0.0, c)
    with pytest.raises(ValueError, match="real"):
        evolve(SchemeId.UEI2_REAL, p, 0.1, ctx)


def test_trajectory_norms_bounded(grid64):
    # guards against blow-up bugs: norms stay below 2x initial on the standard profile
    T = 0.1
    for c in (1.0, 100.0, 1e4):
        m, s0, p0 = _standard_pair(grid64, c)
        ctx = StepContext(grid64, m, T / 64)
        n0 = sobolev_norm(p0.u_star, 1.0)
        for scheme in SchemeId:
            sup = [0.0]
            evolve(
                scheme,
                p0,
                T,
                ctx,
                callback=lambda k, p: sup.__setitem__(
                    0, max(sup[0], sobolev_norm(p.u_star, 1.0))
                ),
            )
            assert sup[0] <= 2.0 * n0, f"{scheme} blew up at c={c}"


# ---------------------------------------------------------------------------
# reference solution


def test_reference_certificate_and_oracle_agreement(grid64):
    c, T = 1.0, 0.1
    m = make_multipliers(grid64, c)
    s0 = paper_initial_data(grid64, c)
    ref = reference_solution(s0, T, m, tau_ref=T * 2.0**-12)
    assert 0.0 <= ref.certificate < 1e-9

    # energy conservation along the reference endpoint
    E0 = energy(s0, m)
    uu, vv = untwist(ref.pair)
    s_end = from_first_order(uu, vv, m, t=ref.pair.t)
    assert abs(energy(s_end, m) - E0) / abs(E0) < 1e-8

    # independent comparison: 64 composed oracle steps
    u0, v0 = to_first_order(s0, m)
    ctx64 = StepContext(grid64, m, T / 64)
    u = twist(u0, v0, 0.0, c).u_star
    t = 0.0
    for k in range(64):
        u = duhamel_oracle_step(u, t, ctx64, nodes=64)
        t += T / 64
    assert sobolev_norm(u - ref.pair.u_star, 1.0) <= 1e-5


def test_reference_unreliable_raises(grid64):
    c, T = 1.0, 0.1
    m = make_multipliers(grid64, c)
    s0 = paper_initial_data(grid64, c)
    with pytest.raises(ReferenceUnreliableError):
        reference_solution(s0, T, m, tau_ref=T / 4)


def test_reference_rejects_complex_data(grid64, rng):
    c, T = 1.0, 0.1
    m = make_multipliers(grid64, c)
    s0 = KgState(z=random_field(grid64, rng), zt=zero_field(grid64))
    with pytest.raises(ValueError, match="real"):
        reference_solution(s0, T, m)
