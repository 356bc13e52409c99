"""Klein-Gordon state handling, twisted variables, and oscillatory kernels.

The cubic Klein-Gordon equation

    c^-2 z_tt - Delta z + c^2 z = |z|^2 z

is rewritten as a first-order system through

    u = z - i c^-1 <grad>_c^-1 z_t,   v = conj(z) - i c^-1 <grad>_c^-1 conj(z)_t,

so that z = (u + conj(v)) / 2, and then filtered into the twisted variables

    u* = e^(-i c^2 t) u,   v* = e^(-i c^2 t) v,

whose generator A_c = c <grad>_c - c^2 is bounded uniformly in c on smooth
data.  For real z one has u == v identically.

The exponential integrators act on the nonlinearity after expanding the
cube of e^(i c^2 t) u* + e^(-i c^2 t) conj(u*) into the four frequency
branches e^(i l c^2 t), l in {0, 2, -2, -4}.  This module provides the
closed-form kernels produced by integrating those branches exactly:

    Psi(t_n, t, v)      running phi_1 moments of the three oscillatory branches
    vartheta(t_n, tau, v)  = (1/tau^2) int_0^tau Psi(t_n, s, v) ds
    Omega_l(t_n, tau, v)   = (1/tau^2) int_0^tau e^(i l c^2 s) Psi(t_n, s, v) ds
    theta(t_n, tau, v)     quintic (c <grad>_c^-1 - 1) correction block
    oscillatory_block      the full second-order treatment of the l != 0
                           branches of the iterated Duhamel formula

All nonlinear products are formed pointwise in physical space; conjugation
of a field is physical-space conjugation, i.e. coefficient reversal plus
conjugation on the Fourier side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .spectral import (
    MultiplierSet,
    SpectralField,
    apply_symbol,
    conj_field,
    field_from_values,
    phi,
    phi_moment,
)

__all__ = [
    "KgState",
    "TwistedPair",
    "KernelBundle",
    "phase_factor",
    "to_first_order",
    "from_first_order",
    "twist",
    "untwist",
    "reconstruct_z",
    "cubic",
    "kernel_psi",
    "kernel_vartheta",
    "kernel_omega",
    "kernel_theta",
    "kernel_bundle",
    "oscillatory_block",
    "energy",
]

_TWO_PI_LD = 2 * np.arccos(np.longdouble(-1.0))


@dataclass(eq=False)
class KgState:
    """Physical pair (z, z_t) at time t."""

    z: SpectralField
    zt: SpectralField
    t: float = 0.0


@dataclass(eq=False)
class TwistedPair:
    """Twisted first-order variables (u*, v*) at time t for a given c."""

    u_star: SpectralField
    v_star: SpectralField
    t: float
    c: float


@dataclass(eq=False)
class KernelBundle:
    """All oscillatory kernels evaluated for one (t_n, tau, v, c)."""

    psi: SpectralField
    vartheta: SpectralField
    omega_l: dict
    theta: SpectralField


def phase_factor(l: int, c: float, t):
    """e^(i l c^2 t), with the argument reduced mod 2pi in extended precision.

    At c = 1e4 and t ~ 0.1 the raw argument reaches 1e7; reducing it in
    80-bit arithmetic keeps the phase accurate to ~1e-12 rad.  A scalar t
    gives a complex, an array of times an array of phases.
    """
    arg = np.longdouble(l) * np.longdouble(c) * np.longdouble(c) * np.longdouble(t)
    arg = np.mod(arg, _TWO_PI_LD)
    if arg.ndim:
        a = arg.astype(np.float64)
        return np.cos(a) + 1j * np.sin(a)
    a = float(arg)
    return complex(np.cos(a), np.sin(a))


def _phase_factors(c, t):
    """The three phases (e^(2ic^2 t_n), e^(-2ic^2 t_n), e^(-4ic^2 t_n))."""
    p2 = phase_factor(2, c, t)
    return p2, p2.conjugate(), phase_factor(-4, c, t)


def _conjrefl(coeffs: np.ndarray, grid) -> np.ndarray:
    """Fourier-side image of physical conjugation."""
    return np.conj(coeffs[grid.conj_index])


def _to_phys(coeffs, n):
    return _fft.ifft(coeffs) * n


def _to_coeffs(vals, n):
    return _fft.fft(vals) / n


# ---------------------------------------------------------------------------
# first-order reformulation and twisting


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid is not g and f.grid.n_points != g.n_points:
            raise ValueError("fields live on different grids")


def to_first_order(s: KgState, m: MultiplierSet):
    """Map (z, z_t) to (u, v) = (z - i c^-1 <grad>_c^-1 z_t, same for conj z)."""
    _check_same_grid(s.z, s.zt)
    inv = 1.0 / (m.c * m.bracket_c)
    u = s.z - 1j * apply_symbol(inv, s.zt)
    v = conj_field(s.z) - 1j * apply_symbol(inv, conj_field(s.zt))
    return u, v


def from_first_order(u: SpectralField, v: SpectralField, m: MultiplierSet, t: float = 0.0) -> KgState:
    """Invert to_first_order: z = (u + conj v)/2, z_t = (i/2) c<grad>_c (u - conj v)."""
    _check_same_grid(u, v)
    vbar = conj_field(v)
    z = 0.5 * (u + vbar)
    zt = 0.5j * apply_symbol(m.c * m.bracket_c, u - vbar)
    return KgState(z=z, zt=zt, t=t)


def twist(u: SpectralField, v: SpectralField, t: float, c: float) -> TwistedPair:
    """Filter out the leading oscillation: (u*, v*) = e^(-i c^2 t) (u, v)."""
    ph = phase_factor(-1, c, t)
    return TwistedPair(u_star=ph * u, v_star=ph * v, t=float(t), c=float(c))


def untwist(p: TwistedPair):
    """Recover (u, v) = e^(+i c^2 t) (u*, v*)."""
    ph = phase_factor(1, p.c, p.t)
    return ph * p.u_star, ph * p.v_star


def reconstruct_z(p: TwistedPair) -> SpectralField:
    """z = (e^(i c^2 t) u* + e^(-i c^2 t) conj(v*)) / 2 at the pair's time."""
    ph = phase_factor(1, p.c, p.t)
    coeffs = 0.5 * (
        ph * p.u_star.coeffs + ph.conjugate() * _conjrefl(p.v_star.coeffs, p.u_star.grid)
    )
    return SpectralField(p.u_star.grid, coeffs)


def cubic(z: SpectralField) -> SpectralField:
    """Pointwise |z|^2 z on the grid (no dealiasing, as in the solvers)."""
    v = z.values()
    return field_from_values(z.grid, np.abs(v) ** 2 * v)


# ---------------------------------------------------------------------------
# oscillatory kernels


def _branch_phis(f, c, t):
    """f at the three branch arguments i l c^2 t, l = 2, -2, -4."""
    x = 2j * c * c * t
    return f(x), f(-x), f(-2.0 * x)


def _cubes(vv):
    """The branch cubes (v^3, 3|v|^2 conj(v), conj(v)^3) of physical samples."""
    v3 = vv**3
    return v3, np.conj(3.0 * np.abs(vv) ** 2 * vv), np.conj(v3)


def _branches(terms, phases, weights):
    """Sum p2 w1 a + m2 w2 b + m4 w3 cc over the branches l = 2, -2, -4:
    terms (a, b, cc) such as _cubes or their Fourier coefficients, phases
    (p2, m2, m4) from _phase_factors, weights scalars or symbols."""
    a, b, cc = terms
    p2, m2, m4 = phases
    w1, w2, w3 = weights
    return p2 * w1 * a + m2 * w2 * b + m4 * w3 * cc


def _branch_field(v: SpectralField, c, t_n, weights) -> SpectralField:
    sums = _branches(_cubes(v.values()), _phase_factors(c, t_n), weights)
    return field_from_values(v.grid, sums)


def kernel_psi(t_n: float, t: float, v: SpectralField, c: float) -> SpectralField:
    """Psi(t_n, t, v) = t e^(2ic^2 t_n) phi_1(2ic^2 t) v^3
    + 3t e^(-2ic^2 t_n) phi_1(-2ic^2 t) |v|^2 conj(v)
    + t e^(-4ic^2 t_n) phi_1(-4ic^2 t) conj(v)^3.
    """
    if t < 0:
        raise ValueError("kernel_psi requires t >= 0")
    return t * _branch_field(v, c, t_n, _branch_phis(lambda z: phi(1, z), c, t))


def kernel_vartheta(t_n: float, tau: float, v: SpectralField, c: float) -> SpectralField:
    """(1/tau^2) int_0^tau Psi(t_n, s, v) ds, in closed form.

    Each branch ratio (phi_1(i l c^2 tau) - 1)/(i l c^2 tau) is exactly
    phi_2(i l c^2 tau), which is how it is evaluated (no 0/0 at small c^2 tau).
    """
    if tau <= 0:
        raise ValueError("kernel_vartheta requires tau > 0")
    return _branch_field(v, c, t_n, _branch_phis(lambda z: phi(2, z), c, tau))


_DD_SERIES_CUTOFF = 0.25
_DD_SERIES_TERMS = 20


def _dd_phi1(a: complex, b: complex) -> complex:
    """Divided difference (phi_1(b) - phi_1(a)) / (b - a), small-argument safe.

    For small arguments the two phi_1 values agree to leading order and the
    naive quotient cancels, so a series in the complete homogeneous symmetric
    polynomials h_m(a, b) is used instead:

        dd = sum_{m>=0} h_m(a, b) / (m + 2)!.
    """
    if max(abs(a), abs(b)) < _DD_SERIES_CUTOFF:
        total = 0.0 + 0.0j
        h = 1.0 + 0.0j
        apow = 1.0 + 0.0j
        fact = 2.0
        for mdeg in range(_DD_SERIES_TERMS):
            if mdeg > 0:
                apow *= a
                h = b * h + apow
                fact *= mdeg + 2
            total += h / fact
        return total
    return (phi(1, b) - phi(1, a)) / (b - a)


def _omega_quotients(tau: float, c: float, l: int):
    """The three phi_1 difference quotients entering Omega_l."""
    z = 1j * c * c * tau
    return tuple(_dd_phi1(l * z, (l + d) * z) for d in (2, -2, -4))


def kernel_omega(t_n: float, tau: float, v: SpectralField, c: float, l: int) -> SpectralField:
    """Omega_l(t_n, tau, v) = (1/tau^2) int_0^tau e^(i l c^2 s) Psi(t_n, s, v) ds.

    Closed form: phi_1 difference quotients over the three branches.  The
    second-order scheme consumes l in {-4, -2, 2} (and, through conjugation,
    the mirrored kernels built from conj(Psi)).
    """
    if tau <= 0:
        raise ValueError("kernel_omega requires tau > 0")
    if l not in (-4, -2, 2):
        raise ValueError(f"invalid oscillation index l={l}; need l in {{-4, -2, 2}}")
    return _branch_field(v, c, t_n, _omega_quotients(tau, c, l))


def kernel_theta(t_n: float, tau: float, v: SpectralField, m: MultiplierSet) -> SpectralField:
    """Quintic correction block carrying the (c <grad>_c^-1 - 1) defect.

    theta(t_n, tau, v) =
        -(1/2)(9/64) e^(i tau/2 A_c) (c<grad>_c^-1 - 1) |v|^4 v
        -(1/2)(9/32) c<grad>_c^-1 e^(i tau/2 A_c) [ |v|^2 (c<grad>_c^-1 - 1)(|v|^2 v) ]
        +(1/2)(9/64) c<grad>_c^-1 e^(i tau/2 A_c) [ v^2 (c<grad>_c^-1 - 1)(|v|^2 conj v) ]
    """
    if tau <= 0:
        raise ValueError("kernel_theta requires tau > 0")
    co = _Uei2Coeffs(m, tau)
    vv = v.values()
    av2 = np.abs(vv) ** 2
    cau = av2 * vv
    return SpectralField(v.grid, _theta_core(co, vv, av2, cau, _to_coeffs(cau, co.n)))


def _theta_core(co, vv, av2, cau, cau_hat):
    """theta in Fourier coefficients, given precomputed cubes of v."""
    n, exp_half, cinv, cinvm1 = co.n, co.exp_half, co.cinv, co.cinvm1
    quint_hat = _to_coeffs(av2 * cau, n)
    w = _to_phys(cinvm1 * cau_hat, n)
    t1 = -0.5 * (9.0 / 64.0) * exp_half * cinvm1 * quint_hat
    t2 = -0.5 * (9.0 / 32.0) * cinv * exp_half * _to_coeffs(av2 * w, n)
    t3 = 0.5 * (9.0 / 64.0) * cinv * exp_half * _to_coeffs(vv * vv * np.conj(w), n)
    return t1 + t2 + t3


class _Uei2Coeffs:
    """Symbols and scalar phi values shared by the second-order machinery.

    Everything here depends only on (grid, c, tau), so a time-stepping loop
    computes it once and reuses it every step.
    """

    def __init__(self, m: MultiplierSet, tau: float):
        grid = m.grid
        self.tau = float(tau)
        self.n = grid.n_points
        self.grid = grid
        c = m.c
        self.c = c
        k2 = grid.wavenumbers**2

        self.a_c = m.a_c
        self.cinv = m.c_inv
        self.cinvm1 = m.c_inv - 1.0
        self.exp_full = np.exp(1j * tau * m.a_c)
        self.exp_half = np.exp(0.5j * tau * m.a_c)

        # branch symbols l = 2, -2, -4: resonant i tau (2c^2 - Delta/2), then
        # i tau (delta c^2 - A_c) for delta = -2, -4; resonant shift Delta/2 - A_c
        syms = (
            1j * tau * (2.0 * c * c + 0.5 * k2),
            -1j * tau * (c * c + c * m.bracket_c),
            -1j * tau * (3.0 * c * c + c * m.bracket_c),
        )
        self.tau_phi1_sym = tuple(tau * phi(1, z) for z in syms)
        self.psim_sym = tuple(phi_moment(z) for z in syms)
        self.res_shift = -0.5 * k2 - m.a_c

        # per-branch scalar weights, same branch order
        self.phi2 = _branch_phis(lambda z: phi(2, z), c, tau)
        self.psim = _branch_phis(phi_moment, c, tau)
        self.omega_q = {l: _omega_quotients(tau, c, l) for l in (2, -2, 4)}


def _block_core(co: _Uei2Coeffs, phases, u_hat, up, cubes):
    """Fourier coefficients of the oscillatory second-order block.

    u_hat are the coefficients of u*, up its physical samples, cubes =
    _cubes(up) and phases = _phase_factors(c, t_n).
    """
    n, tau = co.n, co.tau
    grid = co.grid
    p2, m2, m4 = phases
    psim_p2, psim_m2, psim_m4 = co.psim

    u3_hat = _to_coeffs(cubes[0], n)
    uau_hat = _to_coeffs(np.conj(cubes[1]), n)
    hat_cubes = (u3_hat, _conjrefl(uau_hat, grid), _conjrefl(u3_hat, grid))
    uaub_hat = hat_cubes[1]

    acu = _to_phys(co.a_c * u_hat, n)
    wq_hat = _to_coeffs(up * up * acu, n)
    nr2b_hat = _to_coeffs(np.conj(up) ** 2 * acu - 2.0 * np.abs(up) ** 2 * np.conj(acu), n)

    moments = (co.res_shift * u3_hat + 3.0 * wq_hat, 3.0 * nr2b_hat, -3.0 * _conjrefl(wq_hat, grid))
    main = _branches(hat_cubes, phases, co.tau_phi1_sym)
    main += (1j * tau * tau) * _branches(moments, phases, co.psim_sym)
    main *= co.exp_full

    # branch-filtered moments of Psi (and of conj Psi, via the reflection)
    om2 = _branches(hat_cubes, phases, co.omega_q[2])
    b1 = psim_p2 * uau_hat + om2
    b2 = psim_m2 * uau_hat + _branches(hat_cubes, phases, co.omega_q[-2])
    b3 = psim_m2 * uaub_hat + _conjrefl(om2, grid)
    b4 = psim_m4 * uaub_hat + _conjrefl(_branches(hat_cubes, phases, co.omega_q[4]), grid)
    v1, v2, v3, v4 = _to_phys(co.cinv * np.stack([b1, b2, b3, b4]), n)

    up2 = up * up
    s_vals = (0.375j * tau * tau) * (
        -p2 * up2 * v1
        - m2 * np.conj(up2) * v2
        + 2.0 * m2 * np.abs(up) ** 2 * v3
        + m4 * np.conj(up2) * v4
    )
    return main + _to_coeffs(s_vals, n)


def oscillatory_block(tau: float, t_n: float, u: SpectralField, m: MultiplierSet) -> SpectralField:
    """Second-order closed form of the e^(i l c^2 s), l in {2,-2,-4} part of
    one iterated Duhamel step, starting from u* = u at time t_n."""
    if tau <= 0:
        raise ValueError("oscillatory_block requires tau > 0")
    co = _Uei2Coeffs(m, tau)
    up = u.values()
    return SpectralField(
        u.grid, _block_core(co, _phase_factors(m.c, t_n), u.coeffs, up, _cubes(up))
    )


def kernel_bundle(t_n: float, tau: float, v: SpectralField, m: MultiplierSet) -> KernelBundle:
    """Evaluate all kernels for one (t_n, tau, v, c)."""
    return KernelBundle(
        psi=kernel_psi(t_n, tau, v, m.c),
        vartheta=kernel_vartheta(t_n, tau, v, m.c),
        omega_l={l: kernel_omega(t_n, tau, v, m.c, l) for l in (-4, -2, 2)},
        theta=kernel_theta(t_n, tau, v, m),
    )


# ---------------------------------------------------------------------------
# conserved energy


def _not_real(tol, zv, ztv) -> bool:
    """Whether z or z_t values have an imaginary part above tol * max(scale, 1)."""
    scale = max(np.max(np.abs(zv)), np.max(np.abs(ztv)), 1.0)
    return max(np.max(np.abs(zv.imag)), np.max(np.abs(ztv.imag))) > tol * scale


def energy(s: KgState, m: MultiplierSet) -> float:
    """E = int (1/2) c^-2 z_t^2 + (1/2)|grad z|^2 + (1/2) c^2 z^2 - (1/4) z^4 dx.

    Conserved along real solutions; quadratic terms are summed on the Fourier
    side, the quartic one by the (spectrally accurate) trapezoid rule.
    """
    zv = s.z.values()
    if _not_real(1e-10, zv, s.zt.values()):
        raise ValueError("energy is defined for real-valued states")
    k2 = s.z.grid.wavenumbers**2
    c2 = m.c * m.c
    quad = (
        0.5 / c2 * np.sum(np.abs(s.zt.coeffs) ** 2)
        + 0.5 * np.sum(k2 * np.abs(s.z.coeffs) ** 2)
        + 0.5 * c2 * np.sum(np.abs(s.z.coeffs) ** 2)
    )
    quart = 0.25 * np.mean(zv.real**4)
    return float(2.0 * np.pi * (quad - quart))
