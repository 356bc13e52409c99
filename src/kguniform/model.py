"""Klein-Gordon states, twisted variables, oscillatory kernels and steppers.

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

Every scheme's step arithmetic lives here too: the steppers integrators
drives (_Uei1Stepper, _SplitStepper, _StrangStepper, _Uei2Stepper) and the
branch sum _branches that UEI1 and the kernels share.  It reads the l = -2
and -4 terms off conjugate partners (_partner: a row's own for real data, the
swapped row of the stack (u*, v*)), as the UEI2 step reads them off the
reflections of its transforms (_conjrefl).  The UEI2 step, theta and
oscillatory_block are weighted sums of one transform pipeline,
_Uei2Stepper._rows.

All nonlinear products are formed pointwise in physical space, with |.|^2 as
spectral._abs2; conjugation of a field is physical-space conjugation, i.e.
coefficient reversal plus conjugation on the Fourier side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    MultiplierSet,
    SpectralField,
    _abs2,
    _conjrefl,
    _to_coeffs,
    _to_phys,
    apply_symbol,
    conj_field,
    field_from_values,
    phi,
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


def phase_factor(l: int, c: float, t, k=0, tau=1.0):
    """e^(i l c^2 (t + k tau)), the time formed and the argument reduced mod
    2pi in extended precision: at c = 1e4 and t ~ 0.1 the raw argument
    reaches 1e7, and 80-bit arithmetic keeps the phase accurate to ~1e-12 rad.
    t and k broadcast, k = arange(n) for a run's n steps; NaN or inf raises ValueError.
    """
    arg = np.longdouble(t) + np.longdouble(tau) * np.asarray(k)
    arg *= np.longdouble(l) * np.longdouble(c) * np.longdouble(c)
    if not np.isfinite(arg).all():
        raise ValueError(f"phase_factor requires finite l c^2 t, got l={l}, c={c}, t={t}")
    # rebinding keeps few run-sized temporaries alive; [()] returns a 0-d
    # result as a scalar
    arg = np.mod(arg, _TWO_PI_LD).astype(np.float64)
    return _expi(arg)[()]


def _phases(p2):
    """The branch phases e^(i l c^2 t), l = 2, -2, -4, from p2 = e^(2ic^2 t):
    its conjugate and that squared, in Python complex arithmetic (a numpy
    array square differs in the last bit for a quarter of the entries)."""
    p2 = complex(p2)
    m2 = p2.conjugate()
    return p2, m2, m2 * m2


def _expi(arg, out=None):
    """e^(i arg) for real arg, from cos and sin (cheaper than the complex
    exponential), written into `out` when given."""
    if out is None:
        out = np.empty(arg.shape, dtype=np.complex128)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


# ---------------------------------------------------------------------------
# first-order reformulation and twisting


def _check_same_grid(*fields):
    """Reject fields (or multiplier sets, contexts) whose grids differ in size."""
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid is not g and f.grid.n_points != g.n_points:
            raise ValueError(f"grids of {g.n_points} and {f.grid.n_points} points do not match")


def to_first_order(s: KgState, m: MultiplierSet):
    """Map (z, z_t) to (u, v) = (z - i c^-1 <grad>_c^-1 z_t, same for conj z)."""
    _check_same_grid(m, s.z, s.zt)
    inv = 1.0 / (m.c * m.bracket_c)
    u = s.z - 1j * apply_symbol(inv, s.zt)
    v = conj_field(s.z) - 1j * apply_symbol(inv, conj_field(s.zt))
    return u, v


def from_first_order(u: SpectralField, v: SpectralField, m: MultiplierSet, t: float = 0.0) -> KgState:
    """Invert to_first_order: z = (u + conj v)/2, z_t = (i/2) c<grad>_c (u - conj v)."""
    _check_same_grid(m, u, v)
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
        ph * p.u_star.coeffs + ph.conjugate() * _conjrefl(p.v_star.coeffs)
    )
    return SpectralField(p.u_star.grid, coeffs)


# ---------------------------------------------------------------------------
# oscillatory kernels


def _check_tau(name, tau):
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"{name} requires finite tau > 0, got tau={tau}")


_BRANCH = [5, 3, 2]  # the _phi_table entries (j + 8) // 2 of the branches j = 2, -2, -4


def _phi_table(c, t):
    """(x, phi_1(x), phi_2(x)) at x_j = j i c^2 t, j = -8, -6, ..., 6, one phi
    call each: every scalar weight of the kernels and steps is an entry or a
    quotient of two (_omega_weights), passed on as Python complex (numpy
    scalar weights cost a step ~0.5 us per branch sum)."""
    x = np.arange(-8, 7, 2) * (1j * c * c * t)
    return x, phi(1, x), phi(2, x)


def _partner(a):
    """The partners of a state's rows: the row u* of real data is its own, a
    stack's are its rows swapped (a reversed view)."""
    return a if a.ndim == 1 else a[::-1]


def _row_weights(p):
    """w = |p|^2 + 2|partner|^2 of each row of the samples p (3|u*|^2 for a row)."""
    a2 = _abs2(p)
    return a2 + 2.0 * _partner(a2)


def _branches(p, wp, phases, weights):
    """Sum p2 w1 a + m2 w2 conj(o_wp) + m4 w3 conj(o_a) over the branches
    l = 2, -2, -4 of each row p of samples: a = p^2 o is its one cube, o its
    partner, and o_wp, o_a the partner rows of wp = w p (w = _row_weights(p))
    and a, so that the last two are the cubes w_o conj(o) and conj(o)^2 conj(p)
    (3|v|^2 conj(v) and conj(v)^3 for a row v, its own partner).  phases
    (p2, m2, m4) from _phases, weights Python complex scalars."""
    a = p * p * _partner(p)
    p2, m2, m4 = phases
    w1, w2, w3 = weights
    return p2 * w1 * a + m2 * w2 * np.conj(_partner(wp)) + m4 * w3 * np.conj(_partner(a))


def _branch_field(v: SpectralField, phases, weights) -> SpectralField:
    vv = v.values()
    return field_from_values(v.grid, _branches(vv, _row_weights(vv) * vv, phases, weights))


def kernel_psi(t_n: float, t: float, v: SpectralField, c: float) -> SpectralField:
    """Psi(t_n, t, v) = t e^(2ic^2 t_n) phi_1(2ic^2 t) v^3
    + 3t e^(-2ic^2 t_n) phi_1(-2ic^2 t) |v|^2 conj(v)
    + t e^(-4ic^2 t_n) phi_1(-4ic^2 t) conj(v)^3.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"kernel_psi requires finite t >= 0, got t={t}")
    phases = _phases(phase_factor(2, c, t_n))  # before the table: rejects a non-finite c or t_n
    return t * _branch_field(v, phases, _phi_table(c, t)[1][_BRANCH].tolist())


def kernel_vartheta(t_n: float, tau: float, v: SpectralField, c: float) -> SpectralField:
    """(1/tau^2) int_0^tau Psi(t_n, s, v) ds, in closed form.

    Each branch ratio (phi_1(i l c^2 tau) - 1)/(i l c^2 tau) is exactly
    phi_2(i l c^2 tau), which is how it is evaluated (no 0/0 at small c^2 tau).
    """
    _check_tau("kernel_vartheta", tau)
    phases = _phases(phase_factor(2, c, t_n))
    return _branch_field(v, phases, _phi_table(c, tau)[2][_BRANCH].tolist())


def _omega_weights(table, ls):
    """For each l in ls, the quotients (phi_1(x_b) - phi_1(x_a)) / (x_b - x_a),
    a = l and b = l + d, d = 2, -2, -4, of Omega_l from a _phi_table at t > 0:
    differences of x phi_2(x) = phi_1(x) - 1 while max(|x_a|, |x_b|) < 1, where
    phi_1's constant 1 would cancel, and of phi_1 beyond, where the -1 of
    x phi_2(x) would.  Both forms are computed; neither divides by zero."""
    x, phi1, phi2 = table
    a = (np.array(ls)[:, None] + 8) // 2
    b = a + np.array([1, -1, -2])  # entries of x_(l + d)
    x_phi2 = x * phi2
    near = np.maximum(np.abs(x[a]), np.abs(x[b])) < 1.0
    return (np.where(near, x_phi2[b] - x_phi2[a], phi1[b] - phi1[a]) / (x[b] - x[a])).tolist()


def kernel_omega(t_n: float, tau: float, v: SpectralField, c: float, l: int) -> SpectralField:
    """Omega_l(t_n, tau, v) = (1/tau^2) int_0^tau e^(i l c^2 s) Psi(t_n, s, v) ds.

    Closed form: phi_1 difference quotients over the three branches, formed
    from x phi_2(x) = phi_1(x) - 1 below radius 1 (see _omega_weights).  The
    second-order scheme consumes l in {-4, -2, 2} (and, through conjugation,
    the mirrored kernels built from conj(Psi)).
    """
    _check_tau("kernel_omega", tau)
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or l not in (-4, -2, 2):
        raise ValueError(f"invalid oscillation index l={l}; need l in {{-4, -2, 2}}")
    phases = _phases(phase_factor(2, c, t_n))
    return _branch_field(v, phases, _omega_weights(_phi_table(c, tau), (l,))[0])


def kernel_theta(t_n: float, tau: float, v: SpectralField, m: MultiplierSet) -> SpectralField:
    """Quintic correction block carrying the (c <grad>_c^-1 - 1) defect.

    theta(t_n, tau, v) =
        -(1/2)(9/64) e^(i tau/2 A_c) (c<grad>_c^-1 - 1) |v|^4 v
        -(1/2)(9/32) c<grad>_c^-1 e^(i tau/2 A_c) [ |v|^2 (c<grad>_c^-1 - 1)(|v|^2 v) ]
        +(1/2)(9/64) c<grad>_c^-1 e^(i tau/2 A_c) [ v^2 (c<grad>_c^-1 - 1)(|v|^2 conj v) ]
    """
    _check_tau("kernel_theta", tau)
    _check_same_grid(m, v)
    st = _Uei2Stepper(m, tau)
    # theta's rows depend on the lifted row 0 alone, so any phases and
    # weights serve
    rows = st._rows(np.stack([v.coeffs] * 3), _phases(1.0), st.w_step)
    return SpectralField(v.grid, (st.theta_quint * rows[2] + st.theta_w * rows[10]) / (tau * tau))


class _Uei1Stepper:
    """UEI1 on the stack (u*, v*), or on u* alone for real data (u* == v*)."""

    def __init__(self, m: MultiplierSet, tau: float):
        self.tau = tau
        self.exp_full = np.exp(1j * tau * m.a_c)
        # symbol of the correction: -(i tau/8) c<grad>_c^-1 E
        self.corr = -0.125j * tau * m.c_inv * self.exp_full
        self.phi1 = _phi_table(m.c, tau)[1][_BRANCH].tolist()

    def step(self, x, phases):
        # each row p of the samples is stepped with its partner and weights w
        tau = self.tau
        p = _to_phys(x)
        w = _row_weights(p)
        wp = w * p
        # the two integrands of each row, transformed in one call
        rows = np.empty((2,) + x.shape, dtype=np.complex128)
        lin = _expi((-0.125 * tau) * w, out=rows[0])
        lin *= p
        lin += (0.125j * tau) * wp
        np.add(wp, _branches(p, wp, phases, self.phi1), out=rows[1])
        lin_hat, corr_hat = _to_coeffs(rows, out=rows)
        return self.exp_full * lin_hat + self.corr * corr_hat


class _SplitStepper:
    """Lie splitting e^(i tau L) e^(-i tau w/8) of a state, with the linear
    operator L given by its symbol: -Delta/2 for the Schroedinger limit, A_c
    for the large-c UEI1 (which drops every phi_1 branch of UEI1 and its
    -(i tau/8)(c<grad>_c^-1 - 1) e^(i tau A_c) w u* term)."""

    def __init__(self, tau: float, symbol):
        self.tau = tau
        self.exp_lin = np.exp(1j * tau * symbol)

    def step(self, x, phases):
        # the samples are the step's scratch: the rotation and the forward
        # transform work in place
        rows = _to_phys(x)
        np.multiply(_expi((-0.125 * self.tau) * _row_weights(rows)), rows, out=rows)
        return self.exp_lin * _to_coeffs(rows, out=rows)


class _StrangStepper(_SplitStepper):
    """Strang splitting of the row u*: the Lie step at half the symbol,
    -Delta/4, after its own half-step propagator e^(-i tau Delta/4)."""

    def __init__(self, m: MultiplierSet, tau: float):
        super().__init__(tau, -0.25 * m.laplace)

    def step(self, x, phases):
        return super().step(self.exp_lin * x, phases)


def _branch_symbols(m: MultiplierSet, tau: float):
    """The UEI2 branch symbols l = 2, -2, -4, one row each: the resonant
    i tau (2c^2 - Delta/2), then i tau (delta c^2 - A_c) for delta = -2, -4."""
    c = m.c
    return np.stack(
        [
            1j * tau * (2.0 * c * c + 0.5 * m.grid.wavenumbers**2),
            -1j * tau * (c * c + c * m.bracket_c),
            -1j * tau * (3.0 * c * c + c * m.bracket_c),
        ]
    )


class _Uei2Stepper:
    """The UEI2 stepper: its symbols and scalar phi values, shared by the
    second-order machinery, and its step.

    Everything __init__ builds depends only on (grid, c, tau), so a
    time-stepping loop computes it once and reuses it every step: every
    scalar factor of a symbol-weighted term of the step is folded into its
    symbol, and every scalar weight into a per-run constant (see _rows).
    """

    def __init__(self, m: MultiplierSet, tau: float):
        self.tau = tau = float(tau)
        c = m.c
        k2 = m.grid.wavenumbers**2
        tau2 = tau * tau

        cinvm1 = m.c_inv - 1.0
        exp_half = np.exp(0.5j * tau * m.a_c)
        exp_full = np.exp(1j * tau * m.a_c)
        # the symbols of tau^2 theta: its |v|^4 v term, and the transform of
        # 2|v|^2 w - v^2 conj(w), w the samples of (c<grad>_c^-1 - 1)(|v|^2 v),
        # that the other two share
        self.theta_quint = (-9.0 / 128.0) * tau2 * cinvm1 * exp_half
        self.theta_w = (-9.0 / 128.0) * tau2 * m.c_inv * exp_half
        # stored complex, like every symbol that multiplies complex rows each
        # step: numpy would cast a real one at every product
        self.cinvm1 = cinvm1.astype(np.complex128)
        self.cinv = m.c_inv.astype(np.complex128)
        # rows taking u* to (U = e^(i tau/2 A_c) u*, u*, A_c u*) before the
        # first inverse transform of _rows
        self.lift = np.stack([exp_half, np.ones_like(exp_half), m.a_c])
        # (3/64) tau^2 c<grad>_c^-1, applied before the inverse transforms of
        # the vartheta coupling and of the block's filtered moments
        self.cinv_s = (0.046875 * tau2 * m.c_inv).astype(np.complex128)

        syms = _branch_symbols(m, tau)
        phi1 = phi(1, syms)
        tau_phi1 = tau * phi1
        psim = phi1 - phi(2, syms)  # phi_moment, sharing phi_1
        # the resonant shift Delta/2 - A_c of the l = 2 moment acts on u^3
        tau_phi1[0] += 1j * tau2 * psim[0] * (-0.5 * k2 - m.a_c)
        # the block's main term enters the step as -(i/8) c<grad>_c^-1 e^(i tau A_c)
        # times these branch weights of (u^3, 3|u|^2 conj u, conj u^3) and of
        # the moments (u^2 A_c u, conj(u)^2 A_c u - 2|u|^2 conj(A_c u), conj(u^2 A_c u))
        blk = -0.125j * m.c_inv * exp_full
        cubes = [blk * w for w in tau_phi1]
        moments = [3j * tau2 * blk * w for w in (psim[0], psim[1], -psim[2])]

        # the step's output is one sum of its transformed rows (see step),
        # weighted by: e^(i tau/2 A_c) on the Strang-like core, the
        # -(3i tau/8)(c<grad>_c^-1 - 1) e^(i tau/2 A_c) correction on |U|^2 U,
        # theta's |U|^4 U term, the block's six branch rows in the order of
        # _rows (pairs of branch l = 2, -2, -4), theta's w integrand, and
        # c<grad>_c^-1 on the integrand s of the block and vartheta
        cub_w = -0.375j * tau * self.cinvm1 * exp_half
        block = [cubes[0], moments[0], moments[1], cubes[1], cubes[2], moments[2]]
        self.out_syms = np.stack(
            [exp_half, cub_w, self.theta_quint, *block, self.theta_w, self.cinv]
        )
        self.block_syms = self.out_syms[3:9]

        # the per-run weights of Y and v24 (see _rows) on the rows
        # (3|u|^2 u, p2 u^3, m2 3|u|^2 conj u, m4 conj u^3): Omega quotients,
        # and the scalar phi_moment and phi2 of the branches l = 2, -2, -4
        table = _phi_table(c, tau)
        phi2 = table[2][_BRANCH].tolist()
        mom = (table[1] - table[2])[_BRANCH].tolist()
        om2, omm2, om4 = _omega_weights(table, (2, -2, 4))
        om2 = [w.conjugate() for w in om2]
        om4 = [w.conjugate() for w in om4]
        y = (om2[1], om2[2], mom[0].conjugate(), om2[0])
        v24 = (om4[1] - mom[1], om4[2] - omm2[0], mom[2] - omm2[1], om4[0] - omm2[2])
        self.w_block = _weights(y, v24)
        # a step's Y also carries the vartheta coupling's branches
        self.w_step = _weights([w - p for w, p in zip(y, (0.0, *phi2))], v24)

    def _rows(self, lifted, phases, w):
        """The twelve transformed rows of a step from lifted = lift times the
        coefficients of u*^n (written over), phases = _phases(e^(2ic^2 t_n))
        and the per-run weights w of Y and v24 (w_step, or w_block for
        oscillatory_block): 15 transforms in 4 stacked calls, each formed
        from the outputs of the one before and written over its input.  The
        block's term of a step, -(i/8) c<grad>_c^-1 B, is its branch rows
        (rows[4:10]) weighted by block_syms, plus c<grad>_c^-1 times its
        integrand (rows[11]); tau^2 theta at the samples of lifted[0] is
        rows[2] and rows[10] weighted by theta_quint and theta_w."""
        # 1. an inverse of (U, u*^n, A_c u*^n); the samples of U and u*^n take
        # their |.|^2 and squares as one stack
        phys = _to_phys(lifted, out=lifted)
        pair, acu = phys[:2], phys[2]
        a2 = _abs2(pair)
        sq = pair * pair
        (Up, up), (aU2, au2), up2 = pair, a2, sq[1]
        # 2. a forward of e^(-3i tau|U|^2/8) U, |U|^2 U and |U|^4 U (the
        # Strang-like core and theta at U), and of 3|u|^2 u, u^3, u^2 A_c u and
        # conj(u)^2 A_c u - 2|u|^2 conj(A_c u) at u = u*^n: with their
        # reflections these give every branch cube, so vartheta's transform is
        # a branch sum of them
        rows = np.empty((12, lifted.shape[-1]), dtype=np.complex128)
        lin = _expi((-0.375 * self.tau) * aU2, out=rows[0])
        lin *= Up
        np.multiply(aU2, Up, out=rows[1])
        np.multiply(aU2, rows[1], out=rows[2])
        np.multiply(3.0 * au2, up, out=rows[3])
        np.multiply(up2, up, out=rows[4])
        np.multiply(up2, acu, out=rows[5])
        np.multiply(np.conj(up2), acu, out=rows[6])
        rows[6] -= 2.0 * au2 * np.conj(acu)
        _to_coeffs(rows[:7], out=rows[:7])

        # 3. an inverse of theta's w and of the block's rows Y and v24.  x
        # becomes 3|u|^2 u, then the block's six branch rows times their
        # branch phases, in the order of block_syms: p2 u^3, p2 u^2 A_c u,
        # m2 (the second moment), m2 3|u|^2 conj u, m4 conj u^3,
        # m4 conj(u^2 A_c u).  The branch-filtered moments of Psi, b1 and b2,
        # and of conj Psi, b3 and b4, are scalar combinations of 3|u|^2 u, u^3
        # and their reflections; as c<grad>_c^-1 is real and even, b3 is the
        # reflection of b1, so the block needs m2 conj(v1) and
        # v24 = m4 b4 - m2 b2: the samples of (3/64) tau^2 c<grad>_c^-1 times
        # b1 and that combination.  Y is m2 conj(v1) minus, in a step, the
        # samples of (3/64) tau^2 c<grad>_c^-1 vartheta.  With |p2| = 1, the
        # weights w of Y and v24 on x[0], x[1], x[4] and x[5] are constants
        # of the run (those of v24 times m2)
        x = rows[3:10]
        _conjrefl(x[:3], out=x[4:])
        p2, m2, m4 = phases
        x[1:3] *= p2
        x[3:5] *= m2
        x[5:] *= m4
        inv = np.empty_like(rows[:3])
        np.multiply(self.cinvm1, rows[1], out=inv[0])
        b = inv[1:]
        np.multiply(w[0], x[0], out=b)
        b += w[1] * x[1]
        b += w[2] * x[4]
        b += w[3] * x[5]
        b[1] *= m2
        b *= self.cinv_s
        _to_phys(inv, out=inv)

        # 4. a forward of the integrands 2|p|^2 w - p^2 conj(w) of the samples
        # p of (U, u*^n) and w of theta's w and Y, the last plus conj(u*^2)
        # times the samples of v24
        fwd = np.subtract(2.0 * a2 * inv[:2], sq * np.conj(inv[:2]), out=rows[10:])
        fwd[1] += np.conj(up2) * inv[2]
        _to_coeffs(fwd, out=fwd)
        return rows

    def step(self, uc, phases):
        """One UEI2 step of real data from t_n: the coefficients of u* at
        t_n + tau, a fresh array, from those uc of u*^n (real data is its own
        partner v*), with phases = _phases(e^(2ic^2 t_n)): one sum of the
        rows of _rows weighted by out_syms."""
        rows = self._rows(self.lift * uc, phases, self.w_step)
        # the Strang-like core and theta at U, the block and vartheta at u*^n;
        # rows[3] (3|u|^2 u) is spent
        out = (self.out_syms[:3] * rows[:3]).sum(axis=0)
        out += (self.out_syms[3:] * rows[4:]).sum(axis=0)
        return out


def _weights(y, v24):
    """The per-run weights of _rows' rows Y and v24 as a (4, 2, 1) stack:
    entry j is the column (Y, v24) of weights on the j-th row they sum."""
    return np.array([y, v24]).T[:, :, None].copy()


def oscillatory_block(tau: float, t_n: float, u: SpectralField, m: MultiplierSet) -> SpectralField:
    """Second-order closed form of the e^(i l c^2 s), l in {2,-2,-4} part of
    one iterated Duhamel step from u* = u at time t_n, read off _rows."""
    _check_tau("oscillatory_block", tau)
    _check_same_grid(m, u)
    st = _Uei2Stepper(m, tau)
    rows = st._rows(st.lift * u.coeffs, _phases(phase_factor(2, m.c, t_n)), st.w_block)
    hat = (st.block_syms * rows[4:10]).sum(axis=0)
    # undo the step's -(i/8) c<grad>_c^-1
    return SpectralField(u.grid, 8j * (hat / st.cinv + rows[11]))


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


def energy(s: KgState, m: MultiplierSet) -> float:
    """E = int (1/2) c^-2 z_t^2 + (1/2)|grad z|^2 + (1/2) c^2 z^2 - (1/4) z^4 dx.

    Conserved along real solutions; quadratic terms are summed on the Fourier
    side, the quartic one by the (spectrally accurate) trapezoid rule.  An
    imaginary part above 1e-10 max(|z|, |z_t|, 1) raises ValueError.
    """
    zv, ztv = s.z.values(), s.zt.values()
    scale = max(np.max(np.abs(zv)), np.max(np.abs(ztv)), 1.0)
    if max(np.max(np.abs(zv.imag)), np.max(np.abs(ztv.imag))) > 1e-10 * scale:
        raise ValueError("energy is defined for real-valued states")
    k2 = s.z.grid.wavenumbers**2
    c2 = m.c * m.c
    z2 = _abs2(s.z.coeffs)
    quad = (
        0.5 / c2 * np.sum(_abs2(s.zt.coeffs))
        + 0.5 * np.sum(k2 * z2)
        + 0.5 * c2 * np.sum(z2)
    )
    quart = 0.25 * np.mean(zv.real**4)
    return float(2.0 * np.pi * (quad - quart))
