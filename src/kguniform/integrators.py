"""Time-stepping schemes for the twisted Klein-Gordon system.

All schemes advance the twisted variables (u*, v*).  Writing E = e^(i tau A_c)
and w_u = |u*|^2 + 2|v*|^2, the available steps are

  UEI1 (complex data, first order, uniform in c):
      u*^(n+1) = E e^(-i tau w_u / 8) u*^n
                 - (i tau / 8)(c<grad>_c^-1 - 1) E w_u u*^n
                 - (i tau / 8) c<grad>_c^-1 E { e^(2ic^2 t_n) phi_1(2ic^2 tau) (u*^n)^2 v*^n
                   + e^(-2ic^2 t_n) phi_1(-2ic^2 tau) (2|u*^n|^2 + |v*^n|^2) conj(v*^n)
                   + e^(-4ic^2 t_n) phi_1(-4ic^2 tau) conj(v*^n)^2 conj(u*^n) }
      and the u <-> v swapped update for v*.  Implemented in the fused
      two-transform form (phase factor and correction grouped before one
      application of E).

  UEI1_REAL: the u == v specialization (w = 3|u*|^2).

  UEI2_REAL (second order, uniform in c): with U = e^(i tau/2 A_c) u*^n,
      u*^(n+1) = e^(i tau/2 A_c) e^(-i tau 3|U|^2/8) U
                 - (3i tau/8)(c<grad>_c^-1 - 1) e^(i tau/2 A_c) |U|^2 U
                 + tau^2 theta(t_n, tau, U)
                 - tau^2 (3/64) c<grad>_c^-1 [ 2|u*^n|^2 c<grad>_c^-1 vartheta
                   - (u*^n)^2 c<grad>_c^-1 conj(vartheta) ]
                 - (i/8) c<grad>_c^-1 * oscillatory_block(tau, t_n, u*^n).

  LIE_LIMIT / STRANG_LIMIT: Lie and Strang splitting of the cubic
      Schroedinger system that the twisted variables solve as c -> infinity.

  LARGE_C_UEI1: the tau*c > 1 simplification dropping all phi_1 branches.

A brute-force Duhamel quadrature step (Picard iteration inside composite
Gauss-Legendre panels) serves as the independent local oracle, and
reference_solution produces a fine-step self-certified baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg
from scipy.special import roots_legendre

from .model import (
    KgState,
    TwistedPair,
    _block_core,
    _branch_phis,
    _branches,
    _cubes,
    _phase_factors,
    _theta_core,
    _to_coeffs,
    _to_phys,
    _TWO_PI_LD,
    _Uei2Coeffs,
    reconstruct_z,
    to_first_order,
    twist,
)
from .spectral import (
    MultiplierSet,
    SpectralField,
    SpectralGrid,
    phi,
    sobolev_norm,
)

__all__ = [
    "SchemeId",
    "StepContext",
    "ReferenceSolution",
    "ReferenceUnreliableError",
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


@dataclass(eq=False)
class StepContext:
    """Grid, multipliers and step size shared by a run; caches per-scheme symbols."""

    grid: SpectralGrid
    m: MultiplierSet
    tau: float
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"invalid step size tau={self.tau}")
        if self.m.grid.n_points != self.grid.n_points:
            raise ValueError("multiplier set was built for a different grid")

    def stepper(self, scheme: SchemeId):
        """The scheme's stepper; step(uc, vc, t_n) -> (uc, vc) advances the
        coefficient pair from t_n, and real-data schemes return (u, u)."""
        if scheme not in self._cache:
            self._cache[scheme] = _STEPPERS[scheme](self)
        return self._cache[scheme]


class _Uei1Stepper:
    """UEI1 on the pair; when v* is u* (real data) only u* is stepped."""

    def __init__(self, ctx: StepContext):
        m, tau = ctx.m, ctx.tau
        self.n = ctx.grid.n_points
        self.tau = tau
        self.c = m.c
        self.exp_full = np.exp(1j * tau * m.a_c)
        self.cinv = m.c_inv
        self.phi1 = _branch_phis(lambda z: phi(1, z), m.c, tau)

    def _component(self, up, op, w, phases):
        # fused update for one component: up is stepped, op is the partner
        tau, n = self.tau, self.n
        opb = np.conj(op)
        cubes = (
            up * up * op,
            (2.0 * np.abs(up) ** 2 + np.abs(op) ** 2) * opb,
            opb**2 * np.conj(up),
        )
        osc = _branches(cubes, phases, self.phi1)
        p1 = np.exp(-0.125j * tau * w) * up + 0.125j * tau * w * up
        return self.exp_full * (
            _to_coeffs(p1, n) - 0.125j * tau * self.cinv * _to_coeffs(w * up + osc, n)
        )

    def step(self, uc, vc, t_n):
        n = self.n
        phases = _phase_factors(self.c, t_n)
        up = _to_phys(uc, n)
        if vc is uc:
            u = self._component(up, up, 3.0 * np.abs(up) ** 2, phases)
            return u, u
        vp = _to_phys(vc, n)
        au2 = np.abs(up) ** 2
        av2 = np.abs(vp) ** 2
        unew = self._component(up, vp, au2 + 2.0 * av2, phases)
        vnew = self._component(vp, up, av2 + 2.0 * au2, phases)
        return unew, vnew


class _Uei2RealStepper:
    def __init__(self, ctx: StepContext):
        self.co = _Uei2Coeffs(ctx.m, ctx.tau)

    def step(self, uc, vc, t_n):
        co = self.co
        n, tau = co.n, co.tau
        phases = _phase_factors(co.c, t_n)

        # Strang-like core on the half-propagated field
        Uc = co.exp_half * uc
        Up = _to_phys(Uc, n)
        aU2 = np.abs(Up) ** 2
        cub = aU2 * Up
        cub_hat = _to_coeffs(cub, n)
        out = co.exp_half * _to_coeffs(np.exp(-0.375j * tau * aU2) * Up, n)
        out -= 0.375j * tau * co.cinvm1 * co.exp_half * cub_hat

        # quintic theta block, evaluated at U
        out += tau * tau * _theta_core(co, Up, aU2, cub, cub_hat)

        # vartheta coupling, evaluated at u*^n
        up = _to_phys(uc, n)
        cubes = _cubes(up)
        xw = _to_phys(co.cinv * _to_coeffs(_branches(cubes, phases, co.phi2), n), n)
        out -= (
            0.046875  # 3/64
            * tau
            * tau
            * co.cinv
            * _to_coeffs(2.0 * np.abs(up) ** 2 * xw - up * up * np.conj(xw), n)
        )

        # oscillatory branches
        out -= 0.125j * co.cinv * _block_core(co, phases, uc, up, cubes)
        return out, out


class _SplitStepper:
    """Lie splitting e^(i tau L) e^(-i tau w/8) of the pair, with the linear
    operator L given by its symbol: -Delta/2 for the Schroedinger limit, A_c
    for the large-c UEI1 (which drops every phi_1 branch)."""

    def __init__(self, ctx: StepContext, symbol):
        self.n = ctx.grid.n_points
        self.tau = ctx.tau
        self.exp_lin = np.exp(1j * ctx.tau * symbol)

    def step(self, uc, vc, t_n):
        n, tau = self.n, self.tau
        up = _to_phys(uc, n)
        vp = _to_phys(vc, n)
        au2 = np.abs(up) ** 2
        av2 = np.abs(vp) ** 2
        unew = self.exp_lin * _to_coeffs(np.exp(-0.125j * tau * (au2 + 2 * av2)) * up, n)
        vnew = self.exp_lin * _to_coeffs(np.exp(-0.125j * tau * (av2 + 2 * au2)) * vp, n)
        return unew, vnew


class _StrangStepper:
    def __init__(self, ctx: StepContext):
        self.n = ctx.grid.n_points
        self.tau = ctx.tau
        self.exp_half = np.exp(-0.25j * ctx.tau * ctx.m.laplace)

    def step(self, uc, vc, t_n):
        n = self.n
        um = self.exp_half * uc
        ump = _to_phys(um, n)
        u = self.exp_half * _to_coeffs(np.exp(-0.375j * self.tau * np.abs(ump) ** 2) * ump, n)
        return u, u


_STEPPERS = {
    SchemeId.UEI1: _Uei1Stepper,
    SchemeId.UEI1_REAL: _Uei1Stepper,
    SchemeId.UEI2_REAL: _Uei2RealStepper,
    SchemeId.LIE_LIMIT: lambda ctx: _SplitStepper(ctx, -0.5 * ctx.m.laplace),
    SchemeId.STRANG_LIMIT: _StrangStepper,
    SchemeId.LARGE_C_UEI1: lambda ctx: _SplitStepper(ctx, ctx.m.a_c),
}


def _check_pair_c(p: TwistedPair, ctx: StepContext):
    if abs(p.c - ctx.m.c) > 1e-12 * max(1.0, abs(p.c)):
        raise ValueError(f"pair was twisted at c={p.c} but context has c={ctx.m.c}")


def _pair(grid, uc, vc, t, c) -> TwistedPair:
    """A TwistedPair that owns its u* and v* coefficients separately."""
    return TwistedPair(
        SpectralField(grid, uc), SpectralField(grid, uc.copy() if vc is uc else vc), t, c
    )


def _step_pair(scheme: SchemeId, p: TwistedPair, ctx: StepContext) -> TwistedPair:
    _check_pair_c(p, ctx)
    uc, vc = ctx.stepper(scheme).step(
        p.u_star.coeffs, p.v_star.coeffs, np.longdouble(p.t)
    )
    return _pair(p.u_star.grid, uc, vc, p.t + ctx.tau, p.c)


def _step_real(scheme: SchemeId, u: SpectralField, t_n: float, ctx: StepContext) -> SpectralField:
    uc, _ = ctx.stepper(scheme).step(u.coeffs, u.coeffs, np.longdouble(t_n))
    return SpectralField(u.grid, uc)


def step_uei1(p: TwistedPair, ctx: StepContext) -> TwistedPair:
    """One first-order exponential step of the coupled (u*, v*) system."""
    return _step_pair(SchemeId.UEI1, p, ctx)


def step_uei1_real(u: SpectralField, t_n: float, ctx: StepContext) -> SpectralField:
    """One first-order step of the real-data (u == v) specialization."""
    return _step_real(SchemeId.UEI1_REAL, u, t_n, ctx)


def step_uei2_real(u: SpectralField, t_n: float, ctx: StepContext) -> SpectralField:
    """One second-order exponential step for real data."""
    return _step_real(SchemeId.UEI2_REAL, u, t_n, ctx)


def step_lie_limit(u: SpectralField, v: SpectralField, ctx: StepContext):
    """One Lie splitting step of the cubic Schroedinger limit system."""
    uc, vc = ctx.stepper(SchemeId.LIE_LIMIT).step(u.coeffs, v.coeffs, 0.0)
    return SpectralField(u.grid, uc), SpectralField(u.grid, vc)


def step_strang_limit(u: SpectralField, ctx: StepContext) -> SpectralField:
    """One Strang splitting step of the limit system (real-data case)."""
    return _step_real(SchemeId.STRANG_LIMIT, u, 0.0, ctx)


def step_largec_uei1(p: TwistedPair, ctx: StepContext) -> TwistedPair:
    """Simplified first-order step for the tau*c > 1 regime (not enforced)."""
    return _step_pair(SchemeId.LARGE_C_UEI1, p, ctx)


def evolve(scheme: SchemeId, state: TwistedPair, T: float, ctx: StepContext, callback=None) -> TwistedPair:
    """Advance a twisted pair by T using n = T/tau steps of the given scheme.

    T must be an integer multiple of ctx.tau.  Step times are formed as
    t_0 + k*tau in extended precision so the oscillatory phases e^(i l c^2 t_n)
    stay accurate up to c = 1e4.  The optional callback receives
    (step_index, TwistedPair) after every step.
    """
    if T == 0:
        return state
    nf = T / ctx.tau
    n = int(round(nf))
    if n < 1 or abs(nf - n) > 1e-8 * max(1.0, abs(nf)):
        raise ValueError(f"T={T} is not an integer multiple of tau={ctx.tau}")
    _check_pair_c(state, ctx)

    grid = state.u_star.grid
    uc = state.u_star.coeffs.copy()
    vc = state.v_star.coeffs.copy()
    if scheme in _REAL_ONLY:
        du = np.linalg.norm(uc - vc)
        if du > 1e-8 * max(np.linalg.norm(uc), 1e-300):
            raise ValueError(f"{scheme.value} requires real data (u* == v*)")
        vc = uc

    st = ctx.stepper(scheme)
    t0 = np.longdouble(state.t)
    tau_ld = np.longdouble(ctx.tau)
    for k in range(n):
        uc, vc = st.step(uc, vc, t0 + np.longdouble(k) * tau_ld)
        if callback is not None:
            callback(
                k + 1,
                _pair(grid, uc.copy(), vc.copy(), state.t + (k + 1) * ctx.tau, state.c),
            )
    return _pair(grid, uc, vc, state.t + n * ctx.tau, state.c)


# ---------------------------------------------------------------------------
# brute-force Duhamel oracle


def _gauss_legendre(a: float, b: float, q: int, panels: int = 1):
    """Composite q-point Gauss-Legendre rule on `panels` equal panels of [a, b]:
    nodes (panels, q) and the weights of one panel (q,).  Panels are mapped
    about their centres, so [-1, 1] in one panel gives the reference rule exactly."""
    xg, wg = roots_legendre(q)
    h = (b - a) / panels
    centres = a + h * (np.arange(panels)[:, None] + 0.5)
    return centres + 0.5 * h * xg, 0.5 * h * wg


@lru_cache(maxsize=8)
def _panel_rule(q: int):
    """Gauss-Legendre nodes/weights on [-1, 1] plus the partial-integration
    matrix PM with PM[i, j] = int_{-1}^{x_i} ell_j(x) dx (Lagrange basis),
    built from the exact ell_j = w_j sum_k (k + 1/2) P_k(x_j) P_k: unlike a
    monomial fit it stays well conditioned at large q."""
    nodes, wg = _gauss_legendre(-1.0, 1.0, q)
    xg = nodes[0]
    coef = (np.arange(q) + 0.5)[:, None] * _leg.legvander(xg, q - 1).T * wg
    pm = _leg.legval(xg, _leg.legint(coef, lbnd=-1.0)).T
    return xg, wg, pm


_ORACLE_MAX_PANELS = 20000


def duhamel_oracle_step(
    u: SpectralField, t_n: float, ctx: StepContext, nodes: int = 64
) -> SpectralField:
    """Advance u* by one step of the exact (real-data) Duhamel formula,
    discretized by composite Gauss-Legendre quadrature with the unknown
    u*(t_n + s) inside the integrand supplied by three Picard iterations.

    `nodes` is a floor on the total number of quadrature points; panels are
    added until the fastest oscillation (rate 4c^2 + max A_c) is resolved,
    so the quadrature error is negligible against the O(tau^4) Picard error.
    """
    if nodes < 16:
        raise ValueError(f"need nodes >= 16, got {nodes}")
    m = ctx.m
    tau = ctx.tau
    grid = u.grid
    n = grid.n_points
    c = m.c
    q = 16
    rate = 4.0 * c * c + float(np.max(m.a_c))
    panels = max(2, math.ceil(nodes / q), math.ceil(tau * rate / 3.0))
    if panels > _ORACLE_MAX_PANELS:
        raise ValueError(
            f"oracle would need {panels} panels to resolve the oscillation; "
            "reduce tau, c, or the grid size"
        )
    _, _, pm = _panel_rule(q)
    nodes, wfull = _gauss_legendre(0.0, tau, q, panels)
    h = tau / panels
    s = nodes.ravel()  # (M,)
    mtot = panels * q

    efwd = np.exp(1j * np.outer(s, m.a_c))  # (M, N)
    ebwd = np.conj(efwd)
    arg = np.mod(
        np.longdouble(c) ** 2 * (np.longdouble(t_n) + s.astype(np.longdouble)),
        _TWO_PI_LD,
    ).astype(np.float64)
    ph = np.exp(1j * arg)  # e^(i c^2 (t_n + s))

    u0 = u.coeffs

    def integrate(dcur):
        vals = _to_phys(efwd * dcur, n)
        a = 2.0 * (ph[:, None] * vals).real
        ghat = _to_coeffs(np.conj(ph)[:, None] * a**3, n)
        hnode = (ebwd * ghat).reshape(panels, q, n)
        panel_sum = np.einsum("j,pjn->pn", wfull, hnode)
        prefix = np.zeros_like(panel_sum)
        prefix[1:] = np.cumsum(panel_sum[:-1], axis=0)
        partial = (0.5 * h) * np.einsum("ij,pjn->pin", pm, hnode)
        cnodes = (prefix[:, None, :] + partial).reshape(mtot, n)
        return cnodes, prefix[-1] + panel_sum[-1]

    d = np.broadcast_to(u0, (mtot, n))
    for _ in range(3):
        cnodes, _total = integrate(d)
        d = u0[None, :] - 0.125j * m.c_inv[None, :] * cnodes
    _cnodes, total = integrate(d)
    out = np.exp(1j * tau * m.a_c) * (u0 - 0.125j * m.c_inv * total)
    return SpectralField(grid, out)


# ---------------------------------------------------------------------------
# reference solutions


# largest H^r self-convergence certificate a reference may have
CERTIFICATE_TOL = 1e-9


class ReferenceUnreliableError(RuntimeError):
    """The fine-step reference failed its self-convergence certificate."""


@dataclass(eq=False)
class ReferenceSolution:
    """Fine-step trajectory endpoint plus its self-convergence certificate."""

    pair: TwistedPair
    certificate: float
    tau_ref: float


def reference_solution(
    s0: KgState, T: float, m: MultiplierSet, tau_ref: float | None = None, r: float = 1.0
) -> ReferenceSolution:
    """Fine-step second-order run standing in for the exact solution.

    Runs UEI2_REAL at tau_ref (default T * 2^-16) and at 2*tau_ref; the H^r
    difference of the reconstructed z at time T is the certificate.  If the
    certificate exceeds CERTIFICATE_TOL the reference is rejected.
    """
    if tau_ref is None:
        tau_ref = T * 2.0**-16
    zv = s0.z.values()
    ztv = s0.zt.values()
    scale = max(np.max(np.abs(zv)), np.max(np.abs(ztv)), 1.0)
    if max(np.max(np.abs(zv.imag)), np.max(np.abs(ztv.imag))) > 1e-9 * scale:
        raise ValueError("reference_solution requires real-valued initial data")

    u0, v0 = to_first_order(s0, m)
    pair0 = twist(u0, v0, s0.t, m.c)

    fine = evolve(SchemeId.UEI2_REAL, pair0, T, StepContext(m.grid, m, tau_ref))
    coarse = evolve(SchemeId.UEI2_REAL, pair0, T, StepContext(m.grid, m, 2 * tau_ref))
    cert = sobolev_norm(reconstruct_z(fine) - reconstruct_z(coarse), r)
    if not np.isfinite(cert) or cert > CERTIFICATE_TOL:
        raise ReferenceUnreliableError(
            f"reference self-convergence certificate {cert:.3e} exceeds "
            f"{CERTIFICATE_TOL:.1e} (c={m.c}, tau_ref={tau_ref:.3e})"
        )
    return ReferenceSolution(pair=fine, certificate=float(cert), tau_ref=float(tau_ref))
