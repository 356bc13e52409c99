import cmath
import math

import numpy as np
import pytest

from kguniform import (
    KgState,
    ReferenceUnreliableError,
    SchemeId,
    SpectralField,
    StepContext,
    duhamel_oracle_step,
    energy,
    evolve,
    field_from_values,
    from_first_order,
    kernel_omega,
    kernel_psi,
    kernel_theta,
    kernel_vartheta,
    make_grid,
    make_multipliers,
    oscillatory_block,
    phase_factor,
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
)
from kguniform.harness import fit_order, paper_initial_data
from kguniform.integrators import _legendre_rule
from kguniform.model import TwistedPair
from kguniform.spectral import _conjrefl
from kguniform import verify

from conftest import const_field, random_field, random_real_state


def _standard_pair(grid, c):
    m = make_multipliers(grid, c)
    s0 = paper_initial_data(grid, c)
    u0, v0 = to_first_order(s0, m)
    return m, s0, twist(u0, v0, 0.0, c)


def _state(scheme, p):
    # a run's state x: the row u* for real-data schemes, else the stack (u*, v*)
    from kguniform.integrators import _REAL_ONLY

    if scheme in _REAL_ONLY:
        return p.u_star.coeffs
    return np.stack([p.u_star.coeffs, p.v_star.coeffs])


def test_every_scheme_has_one_stepper(grid64):
    # each stepper is built from (m, tau) alone, and its step is one evolve step
    from kguniform.integrators import _REAL_ONLY, _STEPPERS
    from kguniform.model import _phases

    assert set(_STEPPERS) == set(SchemeId)
    c, tau, t0 = 7.3, 2.0**-7, 0.37
    m, _, real = _standard_pair(grid64, c)
    rng = np.random.default_rng(2)
    pair = TwistedPair(random_field(grid64, rng), random_field(grid64, rng), t0, c)
    real = TwistedPair(real.u_star, real.v_star, t0, c)
    phases = _phases(phase_factor(2, c, t0))
    for scheme in SchemeId:
        p = real if scheme in _REAL_ONLY else pair
        x = _STEPPERS[scheme](m, tau).step(_state(scheme, p), phases)
        got_u, got_v = (x, x) if scheme in _REAL_ONLY else x
        want = evolve(scheme, p, tau, StepContext(grid64, m, tau))
        assert np.array_equal(got_u, want.u_star.coeffs), scheme
        assert np.array_equal(got_v, want.v_star.coeffs), scheme


def test_runs_return_owned_arrays_and_leave_their_input(grid64):
    # every scheme's result owns separate u* and v* arrays, apart from each
    # other and from the input pair, which the run leaves as it was
    from kguniform.integrators import _REAL_ONLY

    c, tau = 3.0, 2.0**-8
    m, _, real = _standard_pair(grid64, c)
    rng = np.random.default_rng(5)
    pair = TwistedPair(random_field(grid64, rng), random_field(grid64, rng), 0.0, c)
    ctx = StepContext(grid64, m, tau)
    for scheme in SchemeId:
        p = real if scheme in _REAL_ONLY else pair
        before = p.u_star.coeffs.copy(), p.v_star.coeffs.copy()
        seen = []
        out = evolve(scheme, p, 3 * tau, ctx, callback=lambda k, q: seen.append(q))
        for q in (*seen, out):
            assert not np.shares_memory(q.u_star.coeffs, q.v_star.coeffs), scheme
            for a in (q.u_star.coeffs, q.v_star.coeffs):
                for b in (p.u_star.coeffs, p.v_star.coeffs):
                    assert not np.shares_memory(a, b), scheme
        assert not np.shares_memory(seen[-1].u_star.coeffs, out.u_star.coeffs), scheme
        assert np.array_equal(seen[-1].u_star.coeffs, out.u_star.coeffs), scheme
        assert np.array_equal(p.u_star.coeffs, before[0]), scheme
        assert np.array_equal(p.v_star.coeffs, before[1]), scheme


def test_phase_table_chunks_leave_runs_bitwise(grid64, monkeypatch):
    # the loop builds its phase table _PHASE_CHUNK steps at a time; the
    # chunking does not change a single phase
    from kguniform import integrators
    from kguniform.integrators import _REAL_ONLY

    c, tau = 100.0, 2.0**-9
    m, _, real = _standard_pair(grid64, c)
    rng = np.random.default_rng(6)
    pair = TwistedPair(random_field(grid64, rng), random_field(grid64, rng), 0.41, c)
    real = TwistedPair(real.u_star, real.v_star, 0.41, c)
    ctx = StepContext(grid64, m, tau)
    runs = {}
    for chunk in (integrators._PHASE_CHUNK, 3):
        monkeypatch.setattr(integrators, "_PHASE_CHUNK", chunk)
        runs[chunk] = [
            evolve(s, real if s in _REAL_ONLY else pair, 10 * tau, ctx) for s in SchemeId
        ]
    for scheme, a, b in zip(SchemeId, *runs.values()):
        assert np.array_equal(a.u_star.coeffs, b.u_star.coeffs), scheme
        assert np.array_equal(a.v_star.coeffs, b.v_star.coeffs), scheme


def test_results_do_not_depend_on_numpys_complex_abs(grid64, monkeypatch):
    # numpy's SIMD complex abs rounds differently from CPU to CPU: made one
    # ulp off, it moves no bit of a run of any scheme, a kernel, the block,
    # the oracle, a norm, the energy or phi's branch at radii within a few
    # ulps of its cutoff 0.1.  At tau = 2^-9 and c = 1 and 100 no |x_j| of
    # the Omega weights lies within an ulp of their threshold 1.
    from kguniform.integrators import _REAL_ONLY

    tau, t_n = 2.0**-9, 0.41
    z = np.outer(0.1 + np.arange(-8, 9) * 2.0**-56, np.exp(1j * np.arange(8)))
    rng = np.random.default_rng(44)
    v = random_field(grid64, rng)
    cases = []
    for c in (1.0, 100.0):
        m, s0, real = _standard_pair(grid64, c)
        real = TwistedPair(real.u_star, real.v_star, t_n, c)
        cases.append((m, s0, real, TwistedPair(v, random_field(grid64, rng), t_n, c)))

    def outputs():
        out = [phi(1, z), phi(2, z)]
        for m, s0, real, pair in cases:
            ctx = StepContext(grid64, m, tau)
            for s in SchemeId:
                out.append(_state(s, evolve(s, real if s in _REAL_ONLY else pair, 3 * tau, ctx)))
            fields = [
                kernel_psi(t_n, tau, v, m.c),
                kernel_vartheta(t_n, tau, v, m.c),
                *(kernel_omega(t_n, tau, v, m.c, l) for l in (-4, -2, 2)),
                kernel_theta(t_n, tau, v, m),
                oscillatory_block(tau, t_n, real.u_star, m),
                duhamel_oracle_step(real.u_star, t_n, ctx),
            ]
            out += [f.coeffs for f in fields] + [sobolev_norm(f, 1.0) for f in (v, *fields)]
            out.append(energy(s0, m))
        return out

    plain = outputs()

    def abs_ulp_up(x, *args, **kwargs):
        y = np.absolute(x, *args, **kwargs)
        return np.nextafter(y, np.inf) if np.iscomplexobj(x) else y

    monkeypatch.setattr(np, "abs", abs_ulp_up)
    for i, (a, b) in enumerate(zip(plain, outputs(), strict=True)):
        assert np.array_equal(a, b), i


def test_step_context_is_immutable(grid64):
    import dataclasses

    ctx = StepContext(grid64, make_multipliers(grid64, 2.0), 0.01)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.tau = 0.02


def test_step_context_rejects_bad_tau(grid64):
    m = make_multipliers(grid64, 2.0)
    for tau in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="StepContext requires finite tau > 0, got tau="):
            StepContext(grid64, m, tau)


# ---------------------------------------------------------------------------
# single steps


def test_steps_vanish_on_zero(grid64):
    c = 2.0
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, 0.01)
    z = const_field(grid64)
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
    # the row u* is its own partner: its branch sum and its step are
    # bitwise row 0 of those of the stack (u*, u*)
    from kguniform.integrators import _STEPPERS
    from kguniform.model import _branches, _phases, _row_weights

    uei1 = _STEPPERS[SchemeId.UEI1](m, 0.005)
    phases = _phases(phase_factor(2, c, 0.37))
    row = p.u_star.values()
    sums = [_branches(y, _row_weights(y) * y, phases, uei1.phi1) for y in (row, np.stack([row, row]))]
    assert np.array_equal(sums[0], sums[1][0])
    x = p.u_star.coeffs
    assert np.array_equal(uei1.step(x, phases), uei1.step(np.stack([x, x]), phases)[0])


def test_uei1_scalar_mode(grid64):
    # single constant mode: every operator reduces to its k = 0 scalar
    tau, t_n, c = 0.02, 0.13, 3.0
    a = 0.4 - 0.25j
    m = make_multipliers(grid64, c)
    ctx = StepContext(grid64, m, tau)
    p = TwistedPair(const_field(grid64, a), const_field(grid64, a), t_n, c)
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
    p = TwistedPair(const_field(grid64, a), const_field(grid64, b), t_n, c)
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


def _theta_reference(v, m, tau):
    # theta of the kernel_theta docstring, term by term, with symbols and
    # transforms of its own; the last term's (c<grad>_c^-1 - 1)(|v|^2 conj v)
    # is transformed on its own, not conjugated from the second term's
    from kguniform import apply_symbol

    grid = v.grid
    exp_half = np.exp(0.5j * tau * m.a_c)  # e^(i tau/2 A_c)
    cinvm1 = m.c_inv - 1.0
    vp = v.values()
    a2 = np.abs(vp) ** 2
    quint = apply_symbol(cinvm1, field_from_values(grid, a2 * a2 * vp))
    w = apply_symbol(cinvm1, field_from_values(grid, a2 * vp)).values()
    wc = apply_symbol(cinvm1, field_from_values(grid, a2 * np.conj(vp))).values()
    mixed = apply_symbol(m.c_inv, field_from_values(grid, 2.0 * a2 * w - vp * vp * wc))
    return (-9.0 / 128.0) * apply_symbol(exp_half, quint + mixed)


def test_kernel_theta_matches_its_docstring_formula(grid64, rng):
    # kernel_theta reads theta off the UEI2 step's rows; _theta_reference
    # shares none of them
    for c in (1.0, 100.0, 1e4):
        m, _, p0 = _standard_pair(grid64, c)
        for v in (p0.u_star, random_field(grid64, rng)):
            for tau in (2.0**-4, 2.0**-10):
                want = _theta_reference(v, m, tau)
                got = kernel_theta(0.37, tau, v, m)
                assert sobolev_norm(got - want, 1.0) <= 1e-13 * sobolev_norm(want, 1.0), (c, tau)


def _assembled_uei2_step(u, t_n, m, tau):
    # the UEI2 step of the integrators docstring, term by term from the
    # public kernel operations, with theta from _theta_reference
    from kguniform import (
        apply_symbol,
        kernel_vartheta,
        oscillatory_block,
    )

    grid = u.grid
    exp_half = np.exp(0.5j * tau * m.a_c)  # e^(i tau/2 A_c)
    U = apply_symbol(exp_half, u)
    Up = U.values()
    term1 = apply_symbol(
        exp_half, field_from_values(grid, np.exp(-0.375j * tau * np.abs(Up) ** 2) * Up)
    )
    term2 = -0.375j * tau * apply_symbol(
        m.c_inv - 1.0,
        apply_symbol(exp_half, field_from_values(grid, np.abs(Up) ** 2 * Up)),
    )
    term3 = tau * tau * _theta_reference(U, m, tau)
    up = u.values()
    xw = apply_symbol(m.c_inv, kernel_vartheta(t_n, tau, u, m.c)).values()
    term4 = (-3.0 / 64.0) * tau * tau * apply_symbol(
        m.c_inv,
        field_from_values(grid, 2.0 * np.abs(up) ** 2 * xw - up * up * np.conj(xw)),
    )
    term5 = -0.125j * apply_symbol(m.c_inv, oscillatory_block(tau, t_n, u, m))
    return term1 + term2 + term3 + term4 + term5


def test_uei2_step_equals_public_kernel_assembly(grid64):
    # the fused stepper must agree with the step assembled from the public
    # kernel operations, term by term
    c, tau, t_n = 10.0, 0.01, 0.37
    m = make_multipliers(grid64, c)
    s0 = paper_initial_data(grid64, c)
    u, _ = to_first_order(s0, m)
    ctx = StepContext(grid64, m, tau)

    assembled = _assembled_uei2_step(u, t_n, m, tau)
    fast = step_uei2_real(u, t_n, ctx)
    assert sobolev_norm(fast - assembled, 1.0) < 1e-13 * max(1.0, sobolev_norm(fast, 1.0))


def _quadrant_time(c, q):
    # t_n ~ 0.31 with 2c^2 t_n mod 2pi in the middle of quadrant q = 0..3
    return (0.2 * math.pi * c * c + (q + 0.5) * math.pi / 2) / (2.0 * c * c)


# (t_n, c, K, the quadrant of 2c^2 t_n mod 2pi or None)
_COMPOSITION_CASES = [
    *(
        pytest.param(t_n, c, 64, None, id=f"{t_n}-{c}")
        for t_n in (0.0, 0.37)
        for c in (1.0, 100.0, 1e4)
    ),
    *(
        pytest.param(_quadrant_time(c, q), c, 64, q, id=f"quadrant{q}-{c}")
        for c in (100.0, 1e4)
        for q in range(4)
    ),
    pytest.param(0.37, 100.0, 256, None, id="0.37-100.0-K256"),
]


@pytest.mark.parametrize("t_n, c, K, quadrant", _COMPOSITION_CASES)
def test_uei2_step_matches_docstring_composition(t_n, c, K, quadrant):
    # the step shares transforms between its terms; each term on its own,
    # through the public kernels, must add up to the same step.  The step
    # folds its scalar weights into powers of e^(2ic^2 t_n), taking its
    # modulus to be 1; the quadrant cases put the phase all round the circle
    if quadrant is not None:
        angle = cmath.phase(phase_factor(2, c, t_n)) % (2 * math.pi)
        assert int(angle // (math.pi / 2)) == quadrant
    grid = make_grid(1, K)
    tau = 2.0**-7
    m, _, p0 = _standard_pair(grid, c)
    fast = step_uei2_real(p0.u_star, t_n, StepContext(grid, m, tau))
    assembled = _assembled_uei2_step(p0.u_star, t_n, m, tau)
    assert sobolev_norm(fast - assembled, 1.0) <= 1e-14 * sobolev_norm(fast, 1.0)


class _CountingFft:
    """Stands in for a transform binding, counting calls (a stacked call is
    one) and the transforms (rows) they compute, in all and per function."""

    def __init__(self, fft):
        self._fft = fft
        self.calls = 0
        self.rows = 0
        self.calls_of = dict.fromkeys(["fft", "ifft"], 0)

    def _call(self, name, x, *args, **kwargs):
        self.calls += 1
        self.rows += x.size // x.shape[-1]
        self.calls_of[name] += 1
        return getattr(self._fft, name)(x, *args, **kwargs)

    def fft(self, x, *args, **kwargs):
        return self._call("fft", x, *args, **kwargs)

    def ifft(self, x, *args, **kwargs):
        return self._call("ifft", x, *args, **kwargs)


# transforms (rows) one step computes, however they are stacked into calls
_TRANSFORMS_PER_STEP = {
    SchemeId.UEI2_REAL: 15,
    SchemeId.UEI1: 6,
    SchemeId.UEI1_REAL: 3,
    SchemeId.LIE_LIMIT: 4,
    SchemeId.LARGE_C_UEI1: 4,
    SchemeId.STRANG_LIMIT: 2,
}

# transform calls one step may make
_FFT_CALLS_PER_STEP = {
    SchemeId.UEI2_REAL: 4,
    SchemeId.UEI1: 2,
    SchemeId.UEI1_REAL: 2,
    SchemeId.LIE_LIMIT: 2,
    SchemeId.LARGE_C_UEI1: 2,
    SchemeId.STRANG_LIMIT: 2,
}


@pytest.mark.parametrize("scheme, budget", _FFT_CALLS_PER_STEP.items())
def test_fft_calls_per_step(grid64, monkeypatch, scheme, budget):
    # every transform of a step goes through spectral._fft, the solvers' one
    # transform binding; independent ones are stacked into one call, and the
    # row count shows that the stacking skips no transform
    from kguniform import spectral
    from kguniform.integrators import _STEPPERS
    from kguniform.model import _phases

    m, _, p0 = _standard_pair(grid64, 100.0)
    stepper = _STEPPERS[scheme](m, 0.01)  # built outside the count
    x = _state(scheme, p0)
    counter = _CountingFft(spectral._fft)
    monkeypatch.setattr(spectral, "_fft", counter)
    steps = 3
    for k in range(steps):
        x = stepper.step(x, _phases(phase_factor(2, m.c, k * 0.01)))
    assert counter.calls <= budget * steps
    assert counter.rows == _TRANSFORMS_PER_STEP[scheme] * steps


@pytest.mark.parametrize(
    "scheme, calls",
    [
        (SchemeId.UEI2_REAL, 4),
        (SchemeId.UEI1, 2),
        (SchemeId.UEI1_REAL, 2),
        (SchemeId.LIE_LIMIT, 0),
        (SchemeId.LARGE_C_UEI1, 0),
        (SchemeId.STRANG_LIMIT, 0),
    ],
)
def test_phi_calls_per_stepper_build(grid64, monkeypatch, scheme, calls):
    # a stepper takes its scalar weights from one phi table (one phi_1 and one
    # phi_2 call); UEI2 adds one of each on its stacked branch symbols
    from kguniform.integrators import _STEPPERS

    count = _count_phi_calls(monkeypatch)
    m = make_multipliers(grid64, 100.0)
    _STEPPERS[scheme](m, 0.01)
    assert len(count) == calls


def _count_phi_calls(monkeypatch):
    # the list that every later call of spectral.phi, through any of its
    # bindings (phi_moment's own calls included), appends its j to
    from kguniform import integrators, model, spectral

    count = []
    real_phi = spectral.phi

    def counting(j, z):
        count.append(j)
        return real_phi(j, z)

    for mod in (spectral, model, integrators):
        if hasattr(mod, "phi"):
            monkeypatch.setattr(mod, "phi", counting)
    return count


def test_twist_oracle_and_evolve_reject_non_finite_times_and_c(grid64):
    nan = float("nan")
    m, _, p0 = _standard_pair(grid64, 3.0)
    ctx = StepContext(grid64, m, 0.01)
    match = r"phase_factor requires finite l c\^2 t, got l=-1, c=3.0, t=nan"
    with pytest.raises(ValueError, match=match):
        twist(p0.u_star, p0.v_star, nan, 3.0)
    with pytest.raises(ValueError, match="got l=-1, c=nan, t=0.0"):
        twist(p0.u_star, p0.v_star, 0.0, nan)
    with pytest.raises(ValueError, match="got l=1, c=3.0, t=nan"):
        duhamel_oracle_step(p0.u_star, nan, ctx)
    # a pair whose c is NaN matches no context
    bad = TwistedPair(p0.u_star, p0.v_star, 0.0, nan)
    with pytest.raises(ValueError, match="pair was twisted at c=nan but context has c=3.0"):
        evolve(SchemeId.UEI1, bad, 0.02, ctx)


_OTHER_GRID_CALLS = {
    "oracle": lambda p, s, ctx: duhamel_oracle_step(p.u_star, 0.0, ctx),
    "kernel_theta": lambda p, s, ctx: kernel_theta(0.0, 0.01, p.u_star, ctx.m),
    "oscillatory_block": lambda p, s, ctx: oscillatory_block(0.01, 0.0, p.u_star, ctx.m),
    "to_first_order": lambda p, s, ctx: to_first_order(s, ctx.m),
    "from_first_order": lambda p, s, ctx: from_first_order(p.u_star, p.v_star, ctx.m),
}


@pytest.mark.parametrize(
    "scheme", [*SchemeId, *_OTHER_GRID_CALLS], ids=lambda s: getattr(s, "value", s)
)
def test_runs_and_oracle_reject_a_state_on_another_grid(grid64, scheme):
    # a K = 32 state with a K = 64 context (or its multipliers) fails up
    # front, naming both sizes
    _, s, p = _standard_pair(make_grid(1, 32), 3.0)
    ctx = StepContext(grid64, make_multipliers(grid64, 3.0), 0.01)
    with pytest.raises(ValueError, match="grids of 128 and 64 points do not match"):
        if scheme in _OTHER_GRID_CALLS:
            _OTHER_GRID_CALLS[scheme](p, s, ctx)
        else:
            evolve(scheme, p, 0.02, ctx)


@pytest.mark.parametrize("scheme", [SchemeId.UEI1, SchemeId.UEI2_REAL])
def test_evolve_takes_its_phases_from_one_table(grid64, monkeypatch, scheme):
    # one phase_factor call covers every step time of a run, not one per step
    from kguniform import integrators, model

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return phase_factor(*args, **kwargs)

    m, _, p0 = _standard_pair(grid64, 100.0)
    tau = 2.0**-7
    monkeypatch.setattr(model, "phase_factor", counting)
    monkeypatch.setattr(integrators, "phase_factor", counting)
    evolve(scheme, p0, 64 * tau, StepContext(grid64, m, tau))
    assert len(calls) == 1


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
    ua, va = step_lie_limit(const_field(grid64, a), const_field(grid64, a), ctx)
    ref = cmath.exp(-0.375j * 0.02 * abs(a) ** 2) * a
    assert ua.coeffs[0] == pytest.approx(ref, abs=1e-14)
    u = random_field(grid64, rng)
    v = random_field(grid64, rng)
    un, vn = step_lie_limit(u, v, ctx)
    assert sobolev_norm(un, 0.0) == pytest.approx(sobolev_norm(u, 0.0), rel=1e-12)
    assert sobolev_norm(vn, 0.0) == pytest.approx(sobolev_norm(v, 0.0), rel=1e-12)
    # the row u* is stepped as its own partner: bitwise row 0 of the step of
    # the stack (u*, u*), as a2 + 2 a2 rounds like 3 a2
    from kguniform.integrators import _STEPPERS

    lie = _STEPPERS[SchemeId.LIE_LIMIT](m, 0.02)
    row = lie.step(u.coeffs, None)
    assert np.array_equal(row, lie.step(np.stack([u.coeffs, u.coeffs]), None)[0])


def test_strang_step_constant_and_self_convergence(grid64):
    ctx = StepContext(grid64, make_multipliers(grid64, 2.0), 0.02)
    a = 0.5 + 0.3j
    out = step_strang_limit(const_field(grid64, a), ctx)
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


def test_legendre_rule_partial_weights():
    # exact partial integrals of every monomial the rule resolves:
    # int_{-1}^{x_i} x^p dx for p < q
    for q in (16, 32, 64):
        xg, _, pm = _legendre_rule(q)
        for p in range(q):
            ref = (xg ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            np.testing.assert_allclose(pm @ xg**p, ref, rtol=0, atol=1e-13, err_msg=f"q={q} p={p}")


def test_legendre_rule_resolves_six_radians_per_panel():
    # e^(i w x) over [-1, 1] turns through up to 6 rad, half the oracle's
    # budget, and the 16-node rule's partial integrals and sum stay exact to
    # 2.4e-12 and round-off
    xg, wg, pm = _legendre_rule(16)
    for w in np.linspace(-3.0, 3.0, 60):  # an even count skips w = 0
        f = np.exp(1j * w * xg)
        partial = (f - np.exp(-1j * w)) / (1j * w)
        assert np.max(np.abs(pm @ f - partial)) <= 5e-12, w
        assert abs(wg @ f - 2.0 * np.sin(w) / w) <= 1e-15, w


def test_legendre_rule_at_the_oracles_twelve_radians_per_panel():
    # at the oracle's budget the panel sum stays exact to round-off, and the
    # partial integrals, which feed only the inner Picard levels, to 1.1e-7
    xg, wg, pm = _legendre_rule(16)
    for w in np.linspace(-6.0, 6.0, 60):
        f = np.exp(1j * w * xg)
        partial = (f - np.exp(-1j * w)) / (1j * w)
        assert np.max(np.abs(pm @ f - partial)) <= 2e-7, w
        assert abs(wg @ f - 2.0 * np.sin(w) / w) <= 1e-15, w


def test_local_defects_fail_on_a_nan_defect(monkeypatch):
    # a defect that is not finite fails the check, naming c and tau, instead
    # of dropping out of the order fit
    step = verify.step_uei2_real
    bad_tau = 2.0**-9

    def nan_at_one_tau(u, t_n, ctx):
        out = step(u, t_n, ctx)
        if ctx.tau == bad_tau:
            out.coeffs[:] = np.nan
        return out

    monkeypatch.setattr(verify, "step_uei2_real", nan_at_one_tau)
    res = verify.check_local_defects(cases=((1.0, 0.37),))
    assert not res.passed
    assert "c=1:" in res.detail and f"tau={bad_tau:g}" in res.detail, res.detail


def test_local_defects_fail_on_phases_that_ignore_t_n(monkeypatch):
    # steppers whose branch phase table is taken at t = 0: invisible from
    # t_n = 0, where every phase is 1, but the c = 1 case steps from 0.37
    from kguniform import integrators

    phase = integrators.phase_factor

    def phases_at_zero(l, c, t, k=0, tau=1.0):
        return phase(l, c, 0.0 if l == 2 else t, k, tau)

    monkeypatch.setattr(integrators, "phase_factor", phases_at_zero)
    res = verify.check_local_defects(cases=((1.0, 0.37),))
    assert not res.passed, res.detail


def _mp_legendre_rule(q):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton's method at 40
    digits, from the classical starting guesses cos(pi (i - 1/4) / (q + 1/2))."""
    import mpmath

    rule = []
    with mpmath.workdps(40):
        for i in range(1, q + 1):
            x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (q + mpmath.mpf(0.5)))
            for _ in range(50):
                p_prev, p = mpmath.mpf(1), x
                for k in range(1, q):
                    p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
                dp = q * (x * p - p_prev) / (x * x - 1)
                step = p / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -36:
                    break
            rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    rule.sort()
    return [float(x) for x, _ in rule], [w for _, w in rule]


@pytest.mark.parametrize("q", [16, 64])
def test_gauss_legendre_reference_rule_against_mpmath(q):
    xg, wg, _ = _legendre_rule(q)
    x_ref, w_ref = _mp_legendre_rule(q)
    np.testing.assert_allclose(xg, x_ref, rtol=0, atol=1e-15)
    rel = max(float(abs((w - wr) / wr)) for w, wr in zip(wg, w_ref))
    assert rel <= 1e-13


def test_gauss_legendre_rule_raises_when_newton_does_not_converge(monkeypatch):
    # the classical guesses need four Newton steps at q = 16; with two the
    # rule refuses to return nodes that have not converged
    import kguniform.integrators as integrators_mod

    monkeypatch.setattr(integrators_mod, "_NEWTON_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="q=16 did not converge"):
        _legendre_rule.__wrapped__(16)
    monkeypatch.setattr(integrators_mod, "_NEWTON_MAX_STEPS", 4)
    for new, cached in zip(_legendre_rule.__wrapped__(16), _legendre_rule(16)):
        assert np.array_equal(new, cached)


def test_sweep_verify_and_oracle_call_no_lapack_and_load_no_numpy_polynomial(tmp_path):
    # numpy's LAPACK gufuncs are replaced by a stand-in that raises on any
    # use (np.polyfit binds lstsq and leggauss reaches eigvalsh through it),
    # the rule cache is cleared, and a sweep, the quick verify suite and one
    # oracle step then run without it and without numpy.polynomial or
    # numpy.random
    import os
    import subprocess
    import sys
    import textwrap

    import kguniform

    script = tmp_path / "no_lapack.py"
    script.write_text(textwrap.dedent("""\
        import sys

        import numpy as np
        import numpy.linalg._linalg as linalg

        class NoLapack:
            def __getattribute__(self, name):
                raise AssertionError(f"LAPACK routine {name} called")

        linalg._umath_linalg = NoLapack()
        np.linalg.norm(np.ones(3))  # a vector norm needs no LAPACK

        import kguniform as kg
        from kguniform import integrators, verify
        from kguniform.harness import SweepConfig, paper_initial_data, run_sweep

        integrators._legendre_rule.cache_clear()
        grid = kg.make_grid(1, 16)
        m = kg.make_multipliers(grid, 100.0)
        u, _ = kg.to_first_order(paper_initial_data(grid, 100.0), m)
        kg.duhamel_oracle_step(u, 0.37, kg.StepContext(grid, m, 2.0**-6))
        cfg = SweepConfig(c_list=[1.0, 100.0], tau_exponents=[4, 5, 6, 7], K=16, ref_exponent=11)
        orders = run_sweep(cfg).fitted_orders
        assert None not in orders.values(), orders
        for res in verify.run_all(fast=True):
            assert res.passed, (res.name, res.detail)
        assert "numpy.polynomial" not in sys.modules
        assert "numpy.random" not in sys.modules
    """))
    src = os.path.dirname(os.path.dirname(kguniform.__file__))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_rejects_few_nodes(grid64):
    ctx = StepContext(grid64, make_multipliers(grid64, 1.0), 0.02)
    with pytest.raises(ValueError, match="nodes"):
        duhamel_oracle_step(const_field(grid64), 0.0, ctx, nodes=8)


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


def _oracle_c200(grid):
    # 219 panels of 16 nodes: 55 blocks of the oracle's sweep at K = 64, the last partial
    c = 200.0
    m = make_multipliers(grid, c)
    u, _ = to_first_order(paper_initial_data(grid, c), m)
    return u, StepContext(grid, m, 2.0**-6)


def _oracle_block_panels(n):
    # panels per block of the oracle's sweep at n points
    import kguniform.integrators as integrators_mod

    return max(1, integrators_mod._ORACLE_BLOCK_SAMPLES // (16 * n))


def test_oracle_block_size_does_not_change_result(grid64, monkeypatch):
    # the block sweep carries its prefixes in one left-to-right order, and
    # every per-row operation is independent of the rows beside it, so one
    # panel per block and one block for all panels give the default bitwise
    import kguniform.integrators as integrators_mod

    u, ctx = _oracle_c200(grid64)
    times = (0.0, 0.3)  # the sample phases are formed per block and node
    default = [duhamel_oracle_step(u, t_n, ctx).coeffs for t_n in times]
    n = grid64.n_points
    for panels in (1, 219):
        monkeypatch.setattr(integrators_mod, "_ORACLE_BLOCK_SAMPLES", panels * 16 * n)
        assert _oracle_block_panels(n) == panels
        for t_n, want in zip(times, default):
            assert np.array_equal(duhamel_oracle_step(u, t_n, ctx).coeffs, want), (t_n, panels)


def test_oracle_makes_two_complex_transform_calls_per_level_and_block(grid64, monkeypatch):
    # each level of each block takes one inverse and one forward transform
    # of its 16 * panels rows, through the solvers' one transform pair
    from kguniform import spectral

    u, ctx = _oracle_c200(grid64)
    panels, levels = 219, 4
    blocks = -(-panels // _oracle_block_panels(grid64.n_points))
    counter = _CountingFft(spectral._fft)
    monkeypatch.setattr(spectral, "_fft", counter)
    duhamel_oracle_step(u, 0.0, ctx)
    assert counter.calls_of == {"fft": levels * blocks, "ifft": levels * blocks}
    assert counter.rows == levels * 2 * panels * 16


@pytest.mark.parametrize("K", [3, 4])
def test_oracle_agrees_with_fine_uei2_at_the_nyquist_mode(K):
    # random data whose Nyquist coefficient (k = -K) is not small, where the
    # paper profile's is ~1e-36: the oracle's transforms must carry that
    # mode as UEI2's do.  256 UEI2 steps agree to ~1e-10
    rng = np.random.default_rng(7)
    grid = make_grid(1, K)
    m = make_multipliers(grid, 1.0)
    coeffs = rng.standard_normal(2 * K) + 1j * rng.standard_normal(2 * K)
    coeffs *= 0.3 / (1.0 + np.abs(grid.wavenumbers))
    coeffs[K] = 0.3
    u = SpectralField(grid, coeffs)
    tau, t_n = 0.05, 0.3
    oracle = duhamel_oracle_step(u, t_n, StepContext(grid, m, tau))
    fine = evolve(SchemeId.UEI2_REAL, TwistedPair(u, u, t_n, 1.0), tau, StepContext(grid, m, tau / 256))
    assert sobolev_norm(oracle - fine.u_star, 1.0) <= 1e-8


def test_oracle_raises_on_non_finite_state():
    # one NaN coefficient makes the whole result NaN; the oracle says so,
    # naming c, tau and t_n, instead of returning it
    from kguniform import NonFiniteStateError

    grid = make_grid(1, 16)
    m = make_multipliers(grid, 10.0)
    u, _ = to_first_order(paper_initial_data(grid, 10.0), m)
    u.coeffs[3] = np.nan
    ctx = StepContext(grid, m, 0.01)
    with pytest.raises(NonFiniteStateError) as info:
        duhamel_oracle_step(u, 0.25, ctx)
    assert str(info.value) == "oracle result is not finite (c=10.0, tau=0.01, t_n=0.25)"


def test_oracle_agrees_with_a_denser_panel_rule(grid64, monkeypatch):
    # eight times the panels (1.5 rad each) moves no output by more than
    # round-off, on the paper data at c = 200 and 1e4 and on rough data; one
    # flipped last bit of a coefficient in [0.25, 0.5) is 1.1e-16 of a
    # largest 0.5, and at 24 rad per panel the c = 200 paper data move by
    # 3.5e-15
    import kguniform.integrators as integrators_mod

    u, ctx = _oracle_c200(grid64)
    grid16 = make_grid(1, 16)
    # real data whose coefficients decay as (1 + |k|)^-2, the largest 0.5
    co = np.fft.fft(np.random.default_rng(16).standard_normal(32)) / (1.0 + np.abs(grid16.wavenumbers)) ** 2
    rough = SpectralField(grid16, co * (0.5 / np.max(np.abs(co))))
    ctx16 = StepContext(grid16, make_multipliers(grid16, 200.0), 2.0**-6)
    cases = [(u, t_n, ctx) for t_n in (0.0, 0.3)] + [(rough, t_n, ctx16) for t_n in (0.0, 0.3)]
    # c = 1e4 at tau = 2^-16: 509 panels, and 4,070 at 1.5 rad
    m4 = make_multipliers(grid16, 1e4)
    u4, _ = to_first_order(paper_initial_data(grid16, 1e4), m4)
    cases.append((u4, 0.37, StepContext(grid16, m4, 2.0**-16)))
    default = [duhamel_oracle_step(*case).coeffs for case in cases]
    monkeypatch.setattr(integrators_mod, "_ORACLE_RAD_PER_PANEL", 1.5)
    for case, want in zip(cases, default):
        fine = duhamel_oracle_step(*case).coeffs
        assert np.max(np.abs(fine - want)) <= np.finfo(float).eps * np.max(np.abs(fine)), case[1:]


def test_oracle_raises_when_picard_does_not_converge():
    # undamped random real data (all 256 modes of size ~1): the four Picard
    # levels do not settle, and the oracle says so instead of returning them
    grid = make_grid(1, 128)
    m = make_multipliers(grid, 100.0)
    rng = np.random.default_rng(0)
    u = SpectralField(grid, np.fft.fft(rng.standard_normal(grid.n_points)) / 16.0)
    with pytest.raises(ValueError, match="Picard") as info:
        duhamel_oracle_step(u, 0.3, StepContext(grid, m, 2.0**-6))
    assert "c=100.0, tau=0.015625, t_n=0.3" in str(info.value)
    assert "increment" in str(info.value)


def test_oracle_rejects_too_many_panels_before_allocating():
    # 32,553 panels: the nodes alone would be 4 MB, the block arrays more
    import tracemalloc

    grid = make_grid(1, 16)
    m = make_multipliers(grid, 1e4)
    u, _ = to_first_order(paper_initial_data(grid, 1e4), m)
    ctx = StepContext(grid, m, 2.0**-10)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="32553 panels"):
            duhamel_oracle_step(u, 0.0, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**18


def test_oracle_defects_are_uniform_up_to_c_1e4():
    # the oracle as a witness at the large-c end, at t_n = 0.37 where no
    # branch phase is 1: at c = 1e4 both schemes keep their local orders,
    # and each defect is within 2x of the one at c = 1e3.  The c = 1e4,
    # tau = 2^-13 call takes ~4,070 panels
    grid = make_grid(1, 64)
    t_n = 0.37
    taus = [2.0**-e for e in range(13, 17)]
    schemes = ((step_uei1_real, 1.8), (step_uei2_real, 2.7))
    defects = {}
    for c in (1e3, 1e4):
        m = make_multipliers(grid, c)
        u, _ = to_first_order(paper_initial_data(grid, c), m)
        for tau in taus:
            ctx = StepContext(grid, m, tau)
            oracle = duhamel_oracle_step(u, t_n, ctx)
            for step, _ in schemes:
                defects[step, c, tau] = sobolev_norm(step(u, t_n, ctx) - oracle, 1.0)
    for step, slope in schemes:
        assert fit_order([(tau, defects[step, 1e4, tau]) for tau in taus]) >= slope, step
        for tau in taus:
            ratio = defects[step, 1e4, tau] / defects[step, 1e3, tau]
            assert 0.5 <= ratio <= 2.0, (step, tau, ratio)


def test_oracle_memory_is_bounded_by_the_block():
    # a block's arrays hold a fixed budget of samples (one panel where a
    # panel exceeds it), and each block forms its own nodes and phases, so
    # one call's traced peak grows neither with the panels nor much with N
    import tracemalloc

    cases = [
        # 219 panels: one whole-interval (M, N) array would be 14 MB
        (64, 200.0, 2.0**-6, 0.0, 2),
        # 219 panels, one per block, at N = 1024 points
        (512, 200.0, 2.0**-8, 0.0, 4),
        # 16,277 panels: their nodes and phases alone would be 6 MB
        (16, 1e4, 2.0**-11, 0.37, 2),
    ]
    for K, c, tau, t_n, mb in cases:
        grid = make_grid(1, K)
        m = make_multipliers(grid, c)
        u, _ = to_first_order(paper_initial_data(grid, c), m)
        ctx = StepContext(grid, m, tau)
        tracemalloc.start()
        try:
            duhamel_oracle_step(u, t_n, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mb * 2**20, (K, c, tau, peak)


# ---------------------------------------------------------------------------
# evolve


def test_evolve_contracts(grid64):
    c = 3.0
    m, s0, p0 = _standard_pair(grid64, c)
    ctx = StepContext(grid64, m, 0.01)
    # T = 0 is a run of no steps: owned copies of the pair at its own time
    same = evolve(SchemeId.UEI1, p0, 0.0, ctx)
    assert same.t == p0.t and same.c == p0.c
    for new, old in ((same.u_star, p0.u_star), (same.v_star, p0.v_star)):
        assert np.array_equal(new.coeffs, old.coeffs)
        assert not np.shares_memory(new.coeffs, old.coeffs)
    # and it makes the checks of every run
    complex_pair = TwistedPair(p0.u_star, 1j * p0.v_star, p0.t, p0.c)
    with pytest.raises(ValueError, match="requires real data"):
        evolve(SchemeId.UEI2_REAL, complex_pair, 0.0, ctx)
    with pytest.raises(ValueError, match="twisted at c=5.0 but context has c=3.0"):
        evolve(SchemeId.UEI1, TwistedPair(p0.u_star, p0.v_star, p0.t, 5.0), 0.0, ctx)
    for T in (0.0155, -0.08, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="is not a positive integer multiple"):
            evolve(SchemeId.UEI1, p0, T, ctx)

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


# the public one-step runs of the loop, each taking a twisted pair
_ONE_STEP = {
    SchemeId.UEI1: step_uei1,
    SchemeId.UEI1_REAL: lambda p, ctx: step_uei1_real(p.u_star, p.t, ctx),
    SchemeId.UEI2_REAL: lambda p, ctx: step_uei2_real(p.u_star, p.t, ctx),
    SchemeId.STRANG_LIMIT: lambda p, ctx: step_strang_limit(p.u_star, ctx),
}


@pytest.mark.parametrize(
    "steps, where",
    [(100, "step 64 of 100"), (20, "step 20 of 20")]
    + [pytest.param(100, "step 0 of 100", id="nan-100")]
    + [pytest.param(s, "step 0 of 1", id=s.value) for s in _ONE_STEP],
)
def test_evolve_raises_on_non_finite_state(grid64, steps, where):
    # data a thousand times the standard size blow the first-order step up
    # within a few steps; the check every 64 steps, or after the last,
    # names the run.  A NaN state is caught before the first step, as step
    # 0: in a run, and when steps is a scheme, in its public step
    from kguniform import NonFiniteStateError

    c, tau = 1.0, 0.01
    m, _, p0 = _standard_pair(grid64, c)
    ctx = StepContext(grid64, m, tau)
    scale = np.nan if where.startswith("step 0 ") else 1e3
    u, v = scale * p0.u_star, scale * p0.v_star
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as info:
            if isinstance(steps, SchemeId):
                scheme = steps
                _ONE_STEP[scheme](TwistedPair(u, u, 0.0, c), ctx)
            else:
                scheme = SchemeId.UEI1
                evolve(scheme, TwistedPair(u, v, 0.0, c), steps * tau, ctx)
    msg = str(info.value)
    assert f"{scheme.value} state is not finite at {where}" in msg
    assert f"c={c!r}" in msg and f"tau={tau!r}" in msg


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
# symmetries: each map takes a solution of the equation to a solution, so a
# scheme's steps must commute with its image on the twisted coefficients


def _smooth_coeffs(grid, rng, rows=()):
    # seeded complex coefficients with |coeff_k| ~ (1 + k^2)^-1.5: a row, or
    # a stack of shape (*rows, N)
    draws = rng.standard_normal((2, *rows, grid.n_points))
    return (draws[0] + 1j * draws[1]) * (1.0 + grid.wavenumbers**2) ** -1.5


def _space_maps(grid):
    # translation x -> x + 5 mesh cells, and reflection x -> -x (k -> -k, no conjugation)
    shift = np.exp(1j * grid.wavenumbers * grid.x[5])
    return {
        "translation": lambda x: shift * x,
        "reflection": lambda x: _conjrefl(np.conj(x)),
    }


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_schemes_commute_with_the_equations_symmetries(scheme):
    # translation and reflection for every scheme; for the stack schemes also
    # conjugation, (u*, v*) -> (v*, u*), bitwise, and the gauge
    # z -> e^(i alpha) z, (u*, v*) -> (e^(i alpha) u*, e^(-i alpha) v*)
    from kguniform.integrators import _REAL_ONLY

    grid = make_grid(1, 32)
    rng = np.random.default_rng(19)
    maps = _space_maps(grid)
    stack = scheme not in _REAL_ONLY
    if stack:
        maps["gauge"] = lambda x: np.exp(0.7j * np.array([[1.0], [-1.0]])) * x
    t_n = 0.37
    for c, tau in ((1.0, 0.05), (7.0, 0.01), (1e4, 2.0**-10)):
        ctx = StepContext(grid, make_multipliers(grid, c), tau)

        def run(x):
            u, v = (x, x) if x.ndim == 1 else x
            pair = TwistedPair(SpectralField(grid, u), SpectralField(grid, v), t_n, c)
            return _state(scheme, evolve(scheme, pair, 3 * tau, ctx))

        x = _smooth_coeffs(grid, rng, (2,) if stack else ())
        out = run(x)
        for name, g in maps.items():
            assert _rel(run(g(x)), g(out)) <= 1e-14, (name, c, tau)
        if stack:
            assert np.array_equal(run(x[::-1]), out[::-1]), (c, tau)


def test_oracle_and_block_commute_with_translation_and_reflection():
    grid = make_grid(1, 16)
    c, tau, t_n = 3.0, 0.01, 0.37
    m = make_multipliers(grid, c)
    ctx = StepContext(grid, m, tau)
    u = _smooth_coeffs(grid, np.random.default_rng(19))
    steps = {
        "oracle": lambda x: duhamel_oracle_step(SpectralField(grid, x), t_n, ctx).coeffs,
        "block": lambda x: oscillatory_block(tau, t_n, SpectralField(grid, x), m).coeffs,
    }
    for name, g in _space_maps(grid).items():
        for kind, step in steps.items():
            assert _rel(step(g(u)), g(step(u))) <= 1e-14, (kind, name)


# ---------------------------------------------------------------------------
# reference solution


def test_reference_certificate_and_oracle_agreement(grid64):
    c, T = 1.0, 0.1
    m = make_multipliers(grid64, c)
    s0 = paper_initial_data(grid64, c)
    ref = reference_solution(twist(*to_first_order(s0, m), s0.t, c), T, m, tau_ref=T * 2.0**-12)
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
        reference_solution(twist(*to_first_order(s0, m), s0.t, c), T, m, tau_ref=T / 4)


def test_reference_rejects_complex_data(grid64, rng):
    c, T = 1.0, 0.1
    m = make_multipliers(grid64, c)
    s0 = KgState(z=random_field(grid64, rng), zt=const_field(grid64))
    with pytest.raises(ValueError, match="real"):
        reference_solution(twist(*to_first_order(s0, m), s0.t, c), T, m, tau_ref=T * 2.0**-12)
