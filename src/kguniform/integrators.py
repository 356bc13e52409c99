"""Time-stepping schemes for the twisted Klein-Gordon system.

All schemes advance the twisted variables (u*, v*), held as one array x of
Fourier coefficients: the stack (u*, v*) of shape (2, N), or for real data
(u* == v*) the row u* alone.  A stepper maps step(x, phases) -> x, with the
branch phases e^(i l c^2 t_n), l = 2, -2, -4, from the run's phase_factor
table.  One loop builds the stepper and the table and drives the steps:
evolve runs it for T/tau steps, and each public step_* function is a
one-step run of it, so a step taken alone does the arithmetic of a step
inside a run, and either raises NonFiniteStateError on a state that is not
finite.  The steppers, one class per step body, live in model beside the
kernels, whose branch cubes they share.
Writing E = e^(i tau A_c) and w_u = |u*|^2 + 2|v*|^2, the available steps are

  UEI1 (complex data, first order, uniform in c):
      u*^(n+1) = E e^(-i tau w_u / 8) u*^n
                 - (i tau / 8)(c<grad>_c^-1 - 1) E w_u u*^n
                 - (i tau / 8) c<grad>_c^-1 E { e^(2ic^2 t_n) phi_1(2ic^2 tau) (u*^n)^2 v*^n
                   + e^(-2ic^2 t_n) phi_1(-2ic^2 tau) (2|u*^n|^2 + |v*^n|^2) conj(v*^n)
                   + e^(-4ic^2 t_n) phi_1(-4ic^2 tau) conj(v*^n)^2 conj(u*^n) }
      and the u <-> v swapped update for v*.  Each row's update is E
      applied to the transform of e^(-i tau w_u/8) u* + (i tau/8) w_u u*,
      plus -(i tau/8) c<grad>_c^-1 E applied to the transform of w_u u* + {...};
      the swap is the stack's rows reversed, so a step runs this arithmetic
      once on the stack, with one inverse transform of (u*, v*) and one
      forward transform of the four integrands.

  UEI1_REAL: the same step on the row u*, its own partner (w = 3|u*|^2):
      one inverse and one stacked forward transform of its two integrands.

  UEI2_REAL (second order, uniform in c): with U = e^(i tau/2 A_c) u*^n,
      u*^(n+1) = e^(i tau/2 A_c) e^(-i tau 3|U|^2/8) U
                 - (3i tau/8)(c<grad>_c^-1 - 1) e^(i tau/2 A_c) |U|^2 U
                 + tau^2 theta(t_n, tau, U)
                 - tau^2 (3/64) c<grad>_c^-1 [ 2|u*^n|^2 c<grad>_c^-1 vartheta
                   - (u*^n)^2 c<grad>_c^-1 conj(vartheta) ]
                 - (i/8) c<grad>_c^-1 * oscillatory_block(tau, t_n, u*^n).
      Its stepper folds the step's symbols and scalar weights once per run.

  LIE_LIMIT / STRANG_LIMIT: Lie and Strang splitting of the cubic
      Schroedinger system that the twisted variables solve as c -> infinity.
      Strang is the Lie step of the row u* at half the symbol, -Delta/4,
      after its own half-step propagator e^(-i tau Delta/4).

  LARGE_C_UEI1: the tau*c > 1 simplification u*^(n+1) = E e^(-i tau w_u/8) u*^n,
      dropping all phi_1 branches and the -(i tau/8)(c<grad>_c^-1 - 1) E w_u u*^n
      term of UEI1.  It, LIE_LIMIT and STRANG_LIMIT share one Lie step: one
      inverse transform of the state, one rotation of its rows (with the
      weights w of UEI1, 3|u*|^2 for a row) and one forward transform.

A brute-force Duhamel quadrature step (Picard iteration inside composite
Gauss-Legendre panels) serves as the independent local oracle, and
reference_solution produces a fine-step self-certified baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .model import (
    TwistedPair,
    _check_same_grid,
    _check_tau,
    _expi,
    _phases,
    _SplitStepper,
    _StrangStepper,
    _Uei1Stepper,
    _Uei2Stepper,
    phase_factor,
    reconstruct_z,
)
from .spectral import (
    MultiplierSet,
    SpectralField,
    SpectralGrid,
    _to_coeffs,
    _to_phys,
    sobolev_norm,
)

__all__ = [
    "SchemeId",
    "StepContext",
    "ReferenceSolution",
    "ReferenceUnreliableError",
    "NonFiniteStateError",
    "step_uei1",
    "step_uei1_real",
    "step_uei2_real",
    "step_lie_limit",
    "step_strang_limit",
    "step_largec_uei1",
    "duhamel_oracle_step",
    "evolve",
    "reference_solution",
    "CERTIFICATE_TOL",
]


class SchemeId(Enum):
    UEI1 = "uei1"
    UEI1_REAL = "uei1_real"
    UEI2_REAL = "uei2"
    LIE_LIMIT = "lie"
    STRANG_LIMIT = "strang"
    LARGE_C_UEI1 = "largec"


# schemes that step u* alone and rely on u* == v* (real-valued z)
_REAL_ONLY = {SchemeId.UEI1_REAL, SchemeId.UEI2_REAL, SchemeId.STRANG_LIMIT}


@dataclass(frozen=True, eq=False)
class StepContext:
    """Grid, multipliers and step size shared by a run."""

    grid: SpectralGrid
    m: MultiplierSet
    tau: float

    def __post_init__(self):
        _check_tau("StepContext", self.tau)
        _check_same_grid(self, self.m)


# scheme -> model's stepper constructor (m, tau).  step(x, phases) returns a
# fresh state x one step on from t_n, the stack (u*, v*) or, for the schemes
# of _REAL_ONLY, the row u*, and leaves its input as it was; phases =
# model._phases(e^(2ic^2 t_n)) (the splitting steps ignore them)
_STEPPERS = {
    SchemeId.UEI1: _Uei1Stepper,
    SchemeId.UEI1_REAL: _Uei1Stepper,
    SchemeId.UEI2_REAL: _Uei2Stepper,
    SchemeId.LIE_LIMIT: lambda m, tau: _SplitStepper(tau, -0.5 * m.laplace),
    SchemeId.STRANG_LIMIT: _StrangStepper,
    SchemeId.LARGE_C_UEI1: lambda m, tau: _SplitStepper(tau, m.a_c),
}


def _pair(grid, x, t, c) -> TwistedPair:
    """A TwistedPair of state x that owns copies of its u* and v* rows."""
    u, v = (x, x) if x.ndim == 1 else x
    return TwistedPair(SpectralField(grid, u.copy()), SpectralField(grid, v.copy()), t, c)


class NonFiniteStateError(FloatingPointError):
    """A run's state stopped being finite (it blew up)."""


# the loop checks the state is finite before the first step, every this many
# steps and after the last
_FINITE_CHECK_EVERY = 64

# steps per phase_factor call: the loop holds one chunk of the phase table at
# a time, so a run's memory does not grow with its step count
_PHASE_CHUNK = 4096


def _run(scheme: SchemeId, state: TwistedPair, n: int, ctx: StepContext, callback=None) -> TwistedPair:
    """Advance a twisted pair by n >= 0 steps of the given scheme: the one
    stepping loop, behind evolve and every public step (which call it, not
    evolve, so a profiler wrapping both counts a step once).

    The state is one coefficient array x (see _STEPPERS).  phase_factor forms
    the step times t_0 + k*tau in extended precision (phases stay accurate up
    to c = 1e4), one call per _PHASE_CHUNK steps, and step k runs
    step(x, phases) with the triple of its table entry.  The optional
    callback receives (step_index, TwistedPair) after every step.  A state
    that is not finite raises NonFiniteStateError, checked before the first
    step (as step 0), every _FINITE_CHECK_EVERY steps and after the last.
    """
    if not abs(state.c - ctx.m.c) <= 1e-12 * max(1.0, abs(state.c)):  # NaN fails too
        raise ValueError(f"pair was twisted at c={state.c} but context has c={ctx.m.c}")
    _check_same_grid(ctx.m, state.u_star, state.v_star)
    grid = state.u_star.grid
    # steps never write over their input, so x needs no copy of the state
    x = uc = state.u_star.coeffs
    vc = state.v_star.coeffs
    if scheme not in _REAL_ONLY:
        x = np.stack([uc, vc])
    elif np.linalg.norm(uc - vc) > 1e-8 * max(np.linalg.norm(uc), 1e-300):
        raise ValueError(f"{scheme.value} requires real data (u* == v*)")

    if not np.isfinite(x).all():
        raise _not_finite(scheme, 0, n, ctx)
    st = _STEPPERS[scheme](ctx.m, ctx.tau)
    for k0 in range(0, n, _PHASE_CHUNK):
        ks = np.arange(k0, min(n, k0 + _PHASE_CHUNK))
        for k, p2 in enumerate(phase_factor(2, ctx.m.c, state.t, ks, ctx.tau).tolist(), k0 + 1):
            x = st.step(x, _phases(p2))
            if callback is not None:
                callback(k, _pair(grid, x, state.t + k * ctx.tau, state.c))
            if (k % _FINITE_CHECK_EVERY == 0 or k == n) and not np.isfinite(x).all():
                raise _not_finite(scheme, k, n, ctx)
    return _pair(grid, x, state.t + n * ctx.tau, state.c)


def _not_finite(scheme, k, n, ctx):
    return NonFiniteStateError(
        f"{scheme.value} state is not finite at step {k} of {n} (c={ctx.m.c!r}, tau={ctx.tau!r})"
    )


def step_uei1(p: TwistedPair, ctx: StepContext) -> TwistedPair:
    """One first-order exponential step of the coupled (u*, v*) system: a
    one-step run of evolve's loop, raising NonFiniteStateError if not finite."""
    return _run(SchemeId.UEI1, p, 1, ctx)


def step_uei1_real(u: SpectralField, t_n: float, ctx: StepContext) -> SpectralField:
    """One first-order step of the real-data (u == v) specialization: a
    one-step run of evolve's loop, raising NonFiniteStateError if not finite."""
    return _run(SchemeId.UEI1_REAL, TwistedPair(u, u, t_n, ctx.m.c), 1, ctx).u_star


def step_uei2_real(u: SpectralField, t_n: float, ctx: StepContext) -> SpectralField:
    """One second-order exponential step for real data: a one-step run of
    evolve's loop, raising NonFiniteStateError if not finite."""
    return _run(SchemeId.UEI2_REAL, TwistedPair(u, u, t_n, ctx.m.c), 1, ctx).u_star


def step_lie_limit(u: SpectralField, v: SpectralField, ctx: StepContext):
    """One Lie splitting step of the cubic Schroedinger limit system: a
    one-step run of evolve's loop, raising NonFiniteStateError if not finite."""
    p = _run(SchemeId.LIE_LIMIT, TwistedPair(u, v, 0.0, ctx.m.c), 1, ctx)
    return p.u_star, p.v_star


def step_strang_limit(u: SpectralField, ctx: StepContext) -> SpectralField:
    """One Strang splitting step of the limit system (real-data case): a
    one-step run of evolve's loop, raising NonFiniteStateError if not finite."""
    return _run(SchemeId.STRANG_LIMIT, TwistedPair(u, u, 0.0, ctx.m.c), 1, ctx).u_star


def step_largec_uei1(p: TwistedPair, ctx: StepContext) -> TwistedPair:
    """Simplified first-order step for the tau*c > 1 regime (not enforced):
    a one-step run of evolve's loop, raising NonFiniteStateError if not finite."""
    return _run(SchemeId.LARGE_C_UEI1, p, 1, ctx)


def evolve(scheme: SchemeId, state: TwistedPair, T: float, ctx: StepContext, callback=None) -> TwistedPair:
    """Advance a twisted pair by T using n = T/tau steps of the given scheme.

    T must be 0 or a positive integer multiple of ctx.tau.  The steps run in
    the loop that also takes the public steps (_run): one phase_factor table
    over t_0 + k*tau, the optional callback(step_index, TwistedPair) after
    every step, and NonFiniteStateError once the state is no longer finite.
    T = 0 is a run of no steps: the same checks, and owned copies of the pair.
    """
    nf = T / ctx.tau
    n = int(round(nf)) if math.isfinite(nf) else 0
    if T != 0 and (n < 1 or abs(nf - n) > 1e-8 * max(1.0, abs(nf))):
        raise ValueError(f"T={T} is not a positive integer multiple of tau={ctx.tau}")
    return _run(scheme, state, n, ctx, callback)


# ---------------------------------------------------------------------------
# brute-force Duhamel oracle


def _legendre_table(x, q: int):
    """P_0 .. P_q at the points x, shape (q + 1, len(x)), by the three-term
    recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)."""
    p = np.empty((q + 1, len(x)))
    p[0] = 1.0
    p[1] = x
    for k in range(1, q):
        p[k + 1] = ((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1)
    return p


# Newton steps _legendre_rule allows; from the classical guesses the fourth
# step already moves no node by more than 1e-14, for every q from 2 to 512
_NEWTON_MAX_STEPS = 20


@lru_cache(maxsize=8)
def _legendre_rule(q: int):
    """The q-point Gauss-Legendre nodes x and weights w on [-1, 1], and the
    rule's partial-integration matrix PM[i, j] = int_{-1}^{x_i} ell_j(x) dx
    (Lagrange basis), all read-only.

    The nodes are Newton's method on P_q from the classical guesses
    -cos(pi (i - 1/4) / (q + 1/2)), i = 1..q (ascending), with
    P_q' = q (x P_q - P_(q-1)) / (x^2 - 1) from the recurrence table, until a
    step moves no node by more than 1e-14 (RuntimeError if none does within
    _NEWTON_MAX_STEPS); then the nodes are made symmetric about 0.  The
    weights are 2 (1 - x^2) / (q (x P_q(x) - P_(q-1)(x)))^2 at the nodes.
    Against mpmath the nodes are off by <= 6.4e-17, and the weights by
    5.7e-14 relative at q = 64 and 2e-15 at q = 16.  PM is built from the
    exact ell_j = w_j sum_k (k + 1/2) P_k(x_j) P_k and
    int_{-1}^x P_k = (P_(k+1) - P_(k-1))(x) / (2k + 1), int_{-1}^x P_0 = x + 1,
    from the weights' own table at the nodes: unlike a monomial fit it stays
    well conditioned at large q.
    """
    x = -np.cos(np.pi * (np.arange(1, q + 1) - 0.25) / (q + 0.5))
    for _ in range(_NEWTON_MAX_STEPS):
        p = _legendre_table(x, q)
        dx = p[q] * (x * x - 1.0) / (q * (x * p[q] - p[q - 1]))
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-14:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for q={q} did not converge")
    x = 0.5 * (x - x[::-1])
    p = _legendre_table(x, q)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (q * (x * p[q] - p[q - 1])) ** 2
    ints = np.empty((q, q))  # ints[k, i] = (k + 1/2) int_{-1}^{x_i} P_k
    ints[0] = 0.5 * (x + 1.0)
    ints[1:] = 0.5 * (p[2:] - p[: q - 1])
    pm = ints.T @ (p[:q] * w)
    for a in (x, w, pm):
        a.flags.writeable = False
    return x, w, pm


_ORACLE_MAX_PANELS = 20000

# radians of the integrand's fastest oscillation per 16-node panel.  A panel
# sum of e^(i w x) is exact to round-off (<= 6.7e-16) up to 16 rad and off by
# 3.2e-11 at 24 rad; its partial integrals are off by 2.4e-12 at 6 rad and
# 1.1e-7 at 12, an error that enters only the inner Picard levels.  Against
# oracles at 1.5 rad per panel (3 rad where 1.5 would pass
# _ORACLE_MAX_PANELS) the outputs at 12 rad move by <= 1.2e-16 of their max,
# as at 6 and 8 rad, and by <= 2.8e-6 of the uei2 one-step defect (5.6e-8 at
# 6 rad): K 16 to 128, c 1 to 200, tau 2^-6, 2^-9, 2^-12, t_n 0 and 0.37,
# paper and (1 + |k|)^-2 data, and c = 1e4 at K = 16, tau 2^-13 to 2^-16
_ORACLE_RAD_PER_PANEL = 12.0

# samples per block array of the oracle's sweep: a block holds
# max(1, _ORACLE_BLOCK_SAMPLES // (16 N)) panels of 16 nodes at N points
# (K = 16: 16 panels, K = 64: 4, K >= 256: 1), so a complex block array is at
# most 128 KB, or one panel's 16 N samples where they exceed the budget.  One
# call's tracemalloc peak is 0.83, 0.86 and 1.71 MB at K = 64, 256 and 512
# (c = 200, tau = 2^-6, 2^-7, 2^-8) and 0.92 MB at K = 16 (c = 1e4,
# tau = 2^-11), against 3.29, 12.89, 25.69 and 12.05 MB with 16-panel blocks
# and every node's phase formed up front, at a tied wall time (one BLAS
# thread, 2-vCPU VM).  Benchmark `oracle` peak_rss_mb medians of 6 runs:
# 42.2 MB at 4,096 and 8,192 samples, 43.2 MB at 16,384 and 45.0 MB with
# 16-panel blocks; 4,096 was ~35 % slower in wall_s
_ORACLE_BLOCK_SAMPLES = 8192


def _duhamel_panels(tau: float, m: MultiplierSet, nodes: int):
    """The 16-node Gauss-Legendre panels on [0, tau] that sample a Duhamel
    integral, the oracle's and verify's: their centres (panels,), width h,
    and the rule's in-panel node offsets (h/2) x_j and weights (h/2) w_j, so
    the nodes are centre + offset.

    There are at least max(2, ceil(nodes / 16)) panels, and more until each
    spans at most _ORACLE_RAD_PER_PANEL rad of the integrand's fastest
    oscillation, 4 (c^2 + max A_c): the cube of three samples, each
    oscillating as e^(i s (c^2 + A_c(j))), times the output propagator
    e^(-i s (c^2 + A_c(k))).  Panels at K = 64 and nodes = 64:

        tau        2^-6   2^-9   2^-12
        c = 100      62      8       4
        c = 200     219     28       4

    More than _ORACLE_MAX_PANELS raise ValueError before any allocation."""
    rate = 4.0 * (m.c * m.c + float(np.max(m.a_c)))
    panels = max(2, math.ceil(nodes / 16), math.ceil(tau * rate / _ORACLE_RAD_PER_PANEL))
    if panels > _ORACLE_MAX_PANELS:
        raise ValueError(
            f"oracle would need {panels} panels to resolve the oscillation; "
            "reduce tau, c, or the grid size"
        )
    h = tau / panels
    xg, wg, _ = _legendre_rule(16)
    return h * (np.arange(panels) + 0.5), h, 0.5 * h * xg, 0.5 * h * wg


def duhamel_oracle_step(
    u: SpectralField, t_n: float, ctx: StepContext, nodes: int = 64
) -> SpectralField:
    """Advance u* by one step of the exact (real-data) Duhamel formula,
    discretized by composite Gauss-Legendre quadrature with the unknown
    u*(t_n + s) inside the integrand supplied by three Picard iterations.

    `nodes` is a floor on the total number of quadrature points, and
    _duhamel_panels lays out the 16-node panels, fine enough that the
    quadrature error is negligible against the O(tau^4) Picard error.

    After the finiteness check, the last two levels' integrals must agree to
    1e-6 of the result's largest coefficient, else the Picard iteration has
    not converged and ValueError names c, tau, t_n and the increment.

    The iteration is causal: Picard level k+1 at a node needs level k only
    at that node, plus level k's integral over the earlier panels.  So the
    panels are swept left to right in blocks of
    max(1, _ORACLE_BLOCK_SAMPLES // (16 N)) panels at N points, and
    each of the four levels (three iterations, then the final integral)
    carries its running integral from one block to the next as one
    coefficient vector.  A block's panel prefixes are the cumsum of
    [carry; its panel sums], the left-to-right order of one cumsum over all
    panels.  One real product with the stacked rule [(h/2) PM; w], h the
    panel width, gives a level's in-panel partial integrals and its panel
    sums; the last level needs only the sums.  Each block forms its own
    nodes and sample phases, so memory is O(_ORACLE_BLOCK_SAMPLES) samples
    per block array (16 N where one panel exceeds it), whatever the number
    of panels, rather than O(nodes * N).

    The data are real, so the sample a = 2 Re(e^(i c^2 s) u*(s)) and its
    cube are real.  Each block folds the sample phase into its propagators
    efwd = e^(i c^2 (t_n + s)) e^(i s A_c) and ebwd = corr conj(efwd), with
    corr = -i c<grad>_c^-1, so a level forms y = efwd d, takes one inverse
    transform, cubes the real part a/2 of the samples in place and zeroes
    their imaginary part, takes one forward transform and multiplies by
    ebwd: 8 (a/2)^3 = a^3 exactly, so the product is the coefficients of
    conj(ph) a^3 times -(i/8) c<grad>_c^-1.  The running integrals then hold
    corr, and the next level's d is u* + their sum.  A result that is not
    finite raises NonFiniteStateError.
    """
    if nodes < 16:
        raise ValueError(f"need nodes >= 16, got {nodes}")
    _check_same_grid(ctx.m, u)
    m = ctx.m
    tau = ctx.tau
    n = u.grid.n_points
    c = m.c
    centres, h, offsets, weights = _duhamel_panels(tau, m, nodes)
    q = len(offsets)
    rule = np.vstack([0.5 * h * _legendre_rule(q)[2], weights])  # (q + 1, q)
    # e^(i s A_c) is a per-panel factor times a per-node factor, so cos and
    # sin run on (panels, N) and (q, N) values rather than on (panels * q, N)
    enode = _expi(offsets[:, None, None] * m.a_c)  # (q, 1, N)

    u0 = u.coeffs
    corr = -1j * m.c_inv
    levels = 4
    carry = np.zeros((levels, 1, n), dtype=np.complex128)
    block = max(1, _ORACLE_BLOCK_SAMPLES // (q * n))
    for p0 in range(0, len(centres), block):
        # the block's rows in (node, panel) order: a level's integrals are
        # then one product of the rule with all of its rows
        cb = centres[p0 : p0 + block]
        nb = cb.shape[0]
        s = cb + offsets[:, None]  # (q, nb)
        efwd = np.empty((q, nb, n), dtype=np.complex128)
        np.multiply(enode, _expi(cb[:, None] * m.a_c), out=efwd)
        efwd *= phase_factor(1, c, t_n, s)[..., None]  # e^(i c^2 (t_n + s))
        ebwd = np.conj(efwd)
        ebwd *= corr
        y = np.empty((q, nb, n), dtype=np.complex128)
        d = u0
        for level in range(levels):
            # the samples' real part is a/2, and ebwd holds the 8 of
            # 8 (a/2)^3 = a^3
            np.multiply(efwd, d, out=y)
            _to_phys(y, out=y)
            r = y.real
            r *= r * r
            y.imag = 0.0
            _to_coeffs(y, out=y)
            # an explicit out: numpy would otherwise reuse a large temporary
            # with the operands swapped, and its FMA complex product is not
            # bitwise commutative, so results would depend on the block size
            np.multiply(ebwd, y, out=y)
            last = level == levels - 1
            ints = np.matmul(rule[q:] if last else rule, y.view(np.float64).reshape(q, -1))
            sums = ints[-1].view(np.complex128).reshape(nb, n)
            prefix = np.cumsum(np.concatenate([carry[level], sums]), axis=0)
            carry[level] = prefix[-1]
            if not last:
                d = ints[:q].view(np.complex128).reshape(q, nb, n)
                d += prefix[:-1] + u0
    out = np.exp(1j * tau * m.a_c) * (u0 + carry[-1, 0])
    if not np.isfinite(out).all():
        raise NonFiniteStateError(
            f"oracle result is not finite (c={c!r}, tau={tau!r}, t_n={t_n!r})"
        )
    increment = float(np.max(np.abs(carry[-1] - carry[-2])))
    scale = float(np.max(np.abs(out)))
    if increment > 1e-6 * scale:
        raise ValueError(
            f"oracle Picard iteration did not converge (c={c!r}, tau={tau!r}, "
            f"t_n={t_n!r}): last increment {increment:.3e}, largest coefficient {scale:.3e}"
        )
    return SpectralField(u.grid, out)


# ---------------------------------------------------------------------------
# reference solutions


# largest reference certificate; it and every sweep error are H^_NORM_R = H^1 norms
CERTIFICATE_TOL = 1e-9
_NORM_R = 1.0


class ReferenceUnreliableError(RuntimeError):
    """The fine-step reference failed its self-convergence certificate."""


@dataclass(eq=False)
class ReferenceSolution:
    """Fine-step trajectory endpoint plus its self-convergence certificate."""

    pair: TwistedPair
    certificate: float


def reference_solution(
    pair0: TwistedPair, T: float, m: MultiplierSet, tau_ref: float
) -> ReferenceSolution:
    """Fine-step second-order run standing in for the exact solution.

    Runs UEI2_REAL from pair0, the twisted initial pair evolve takes, at
    tau_ref and at 2*tau_ref; the H^1 difference of the reconstructed z at
    time T is the certificate.  If it exceeds CERTIFICATE_TOL the reference
    is rejected.  The data must be real: the run rejects u* != v* (1e-8
    relative) with ValueError.
    """
    try:
        fine = evolve(SchemeId.UEI2_REAL, pair0, T, StepContext(m.grid, m, tau_ref))
        coarse = evolve(SchemeId.UEI2_REAL, pair0, T, StepContext(m.grid, m, 2 * tau_ref))
    except NonFiniteStateError as exc:
        raise ReferenceUnreliableError(f"reference run blew up: {exc}") from exc
    cert = sobolev_norm(reconstruct_z(fine) - reconstruct_z(coarse), _NORM_R)
    if not np.isfinite(cert) or cert > CERTIFICATE_TOL:
        raise ReferenceUnreliableError(
            f"reference self-convergence certificate {cert:.3e} exceeds "
            f"{CERTIFICATE_TOL:.1e} (c={m.c}, tau_ref={tau_ref:.3e})"
        )
    return ReferenceSolution(pair=fine, certificate=float(cert))
