"""Property and oracle verification suite.

Backs `kg-uniform verify` and the heavier assertions of the test suite:
exact operator norm bounds, exact scheme stability bounds over every
single-mode pair, closed-form kernels against Gauss-Legendre quadrature of
their defining integrals, and single-step defects of both schemes against
the brute-force Duhamel oracle.

Every kernel and defect check runs on the paper data (_paper_data), and
both quadratures sample on the oracle's panels (_duhamel_panels).  The
block and local-defect checks fit their defect slopes by one rule
(_slopes): the block check steps from t_n = 0.37, the local-defect check
from t_n = 0.37 at c = 1 and from t_n = 0 at c = 100.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# its own FFT binding and explicit 1/n scaling, independent of spectral's pair
import numpy.fft as _fft

from .harness import fit_order, paper_initial_data
from .integrators import (
    StepContext,
    _NORM_R,
    _duhamel_panels,
    duhamel_oracle_step,
    step_uei1_real,
    step_uei2_real,
)
from .model import _branch_symbols, kernel_omega, oscillatory_block, phase_factor, to_first_order
from .spectral import (
    SpectralField,
    make_grid,
    make_multipliers,
    phi,
    phi_moment,
    sobolev_norm,
)

__all__ = ["CheckResult", "run_all"]

# the checks' grid size (2K points), the bounds' c and t, the defect slopes' steps
_K = 64
_BOUND_CS = (1.0, 10.0, 100.0, 1e4)
_BOUND_TS = tuple(j / 100.0 for j in range(-100, 101))
_TAUS = tuple(2.0**-e for e in range(6, 13))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# operator bounds


def check_operator_bounds():
    """The operator bounds, uniformly in c:

    ||A_c f||_r <= (1/2)||f||_{r+2},   ||c<grad>_c^-1 f||_r <= ||f||_r,
    ||e^(itA_c) f||_r = ||f||_r,       ||(e^(itA_c)-1) f||_r <= (|t|/2)||f||_{r+2}.

    Each operator is diagonal, so its norm is its largest weighted symbol over
    the modes, whatever r: A_c/(1+k^2), c<grad>_c^-1, |e^(itA_c)| and
    |e^(itA_c) - 1|/(1+k^2), the last two at each t of _BOUND_TS.  The detail's
    worst violation is the largest per-mode margin (negative on a pass).
    """
    grid = make_grid(1, _K)
    w = 1.0 + grid.wavenumbers**2
    t = np.array(_BOUND_TS)[:, None]
    worst = -np.inf
    for c in _BOUND_CS:
        m = make_multipliers(grid, c)
        e = np.exp(1j * t * m.a_c)
        viol = max(
            np.max(m.a_c / w) - 0.5 - 1e-10,
            np.max(m.c_inv) - 1.0 - 1e-12,
            # hypot: numpy's SIMD complex abs can round |e| an ulp off, per CPU
            np.max(np.abs(np.hypot(e.real, e.imag) - 1.0)) - 1e-12,
            np.max(np.abs(e - 1.0) / w - 0.5 * np.abs(t)) - 1e-10,
        )
        worst = max(worst, float(viol))
    return CheckResult(
        "operator_bounds",
        worst <= 0.0,
        f"worst bound violation {worst:.3e} over {grid.n_points} modes x "
        f"{len(_BOUND_TS)} t x {len(_BOUND_CS)} c values",
    )


def check_stability_bounds():
    """Stability of the second-order correction terms, uniformly in c:

    ||tau^2 phi_moment(i tau (delta c^2 - A_c)) (v A_c w)||_r <= C tau ||v||_r ||w||_r

    for the UEI2 step's own branch symbols (model._branch_symbols): the
    resonant i tau (2c^2 - Delta/2) and the non-resonant -i tau (c^2 + c<grad>_c)
    and -i tau (3c^2 + c<grad>_c).  C must neither blow up nor grow with c (the
    whole point of the twisted formulation).  C(c) is the largest ratio over
    every single-mode pair v = e_a, w = e_b: their product v A_c w is
    A_c(b) e_j with j = a + b (mod 2K, the grid's aliasing), so the ratio is
    tau |phi_moment(sigma_j)| <j> A_c(b) / (<a> <b>), <k> = (1 + k^2)^(r/2),
    and its maximum over b is one reduction M_j = max_b A_c(b) / (<b> <j - b>).
    """
    grid = make_grid(1, _K)
    n = grid.n_points
    br = (1.0 + grid.wavenumbers**2) ** (_NORM_R / 2.0)  # <k> = ||e_k||_r
    idx = np.arange(n)
    partner = br[(idx[:, None] - idx) % n]  # <j - b>: row j, column b
    ratio_by_c = {}
    for c in _BOUND_CS:
        m = make_multipliers(grid, c)
        weight = br * np.max(m.a_c / br / partner, axis=1)  # <j> M_j
        ratio_by_c[c] = max(
            tau * float(np.max(np.abs(phi_moment(_branch_symbols(m, tau))) * weight))
            for tau in (1e-3, 1e-2, 1e-1)
        )
    small_c = max(ratio_by_c[_BOUND_CS[0]], ratio_by_c[_BOUND_CS[1]])
    large_c = max(ratio_by_c[c] for c in _BOUND_CS[2:])
    passed = max(ratio_by_c.values()) <= 25.0 and large_c <= 1.5 * small_c + 1e-9
    detail = ", ".join(f"C(c={c:g})={r:.3g}" for c, r in ratio_by_c.items())
    return CheckResult("stability_bounds", passed, detail)


# ---------------------------------------------------------------------------
# kernel quadrature


def _psi_raw(t_n, s, vv, c):
    """Independent transcription of Psi from its three-branch definition: one
    row per node of the array s, from one phi call."""
    s = s[:, None]
    x = 2j * c * c * s
    phi_p2, phi_m2, phi_m4 = phi(1, np.stack([x, -x, -2 * x]))
    p2 = phase_factor(2, c, t_n)
    m4 = phase_factor(-4, c, t_n)
    v3 = vv**3
    vau = np.abs(vv) ** 2 * vv
    return (
        s * p2 * phi_p2 * v3
        + 3.0 * s * p2.conjugate() * phi_m2 * np.conj(vau)
        + s * m4 * phi_m4 * np.conj(v3)
    )


def _panel_nodes(tau, m, nodes):
    """The nodes and weights of _duhamel_panels(tau, m, nodes), flat in panel order."""
    centres, _, offsets, weights = _duhamel_panels(tau, m, nodes)
    return (centres[:, None] + offsets).ravel(), np.tile(weights, len(centres))


def check_omega_quadrature():
    """Omega_l of the paper data at c = 1, 10 against the quadrature of its
    defining integral on the oracle's 64-node panels, plus the moment identity
    int_0^tau e^(ilc^2 s) s ds = tau^2 phi_moment(ilc^2 tau), each to 1e-12
    relative to the closed form (in the r-norm for Omega_l): each (c, l) forms
    its weighted phases w_j e^(ilc^2 s_j) once, and each quadrature is one
    product with them."""
    tau, t_n = 0.01, 0.37
    worst = 0.0
    for c in (1.0, 10.0):
        m, u = _paper_data(c)
        n = m.grid.n_points
        s, w = _panel_nodes(tau, m, 64)
        psi = _psi_raw(t_n, s, _fft.ifft(u.coeffs) * n, c)
        for l in (-4, -2, 2):
            wph = w * np.exp(1j * l * c * c * s)
            quad = SpectralField(m.grid, _fft.fft(wph @ psi / tau**2) / n)
            closed = kernel_omega(t_n, tau, u, c, l)
            moment = tau**2 * phi_moment(1j * l * c * c * tau)
            diff = sobolev_norm(quad - closed, _NORM_R) / sobolev_norm(closed, _NORM_R)
            worst = max(worst, diff, abs(wph @ s - moment) / abs(moment))
    detail = f"worst |closed form - quadrature| / |closed form| = {worst:.3e}"
    return CheckResult("omega_quadrature", worst <= 1e-12, detail)


def _paper_data(c):
    """The multipliers at c on the checks' grid, and u of paper_initial_data."""
    m = make_multipliers(make_grid(1, _K), c)
    u, _ = to_first_order(paper_initial_data(m.grid, c), m)
    return m, u


def _slopes(c, defects, floors):
    """(passed, detail) of each name's defects on _TAUS against its slope
    floor.  A defect that is not finite and positive fails, naming c and tau,
    instead of dropping out of the fit."""
    for name, errs in defects.items():
        for tau, e in zip(_TAUS, errs):
            if not (np.isfinite(e) and e > 0):
                fault = f"{name} defect {e} at tau={tau:g} is not finite and positive"
                return False, f"c={c:g}: {fault}"
    slopes = {name: fit_order(list(zip(_TAUS, errs))) for name, errs in defects.items()}
    detail = ", ".join(f"{name} {s:.2f} (>={floors[name]:g})" for name, s in slopes.items())
    return all(s >= floors[name] for name, s in slopes.items()), f"c={c:g}: {detail}"


def _block_quadrature(tau, t_n, u, m):
    """Composite 16-point GL quadrature, on the oracle's panels (at least two),
    of the oscillatory Duhamel branches with u*(t_n+s) replaced by its
    first-order inner expansion: one row per node, each transform one call
    over all rows, and the rows' terms summed with the weights in one product."""
    grid = u.grid
    n = grid.n_points
    c = m.c
    uv = _fft.ifft(u.coeffs) * n
    uau = np.abs(uv) ** 2 * uv
    s, w = _panel_nodes(tau, m, 32)
    sc = s[:, None]
    inner = 3.0 * sc * uau + _psi_raw(t_n, s, uv, c)
    ut_hat = np.exp(1j * sc * m.a_c) * u.coeffs - 0.125j * m.c_inv * (_fft.fft(inner) / n)
    wv = _fft.ifft(ut_hat) * n
    ph = phase_factor(1, c, t_n + sc)
    w3 = wv**3
    wau = np.abs(wv) ** 2 * wv
    g = ph**2 * w3 + 3.0 * ph.conjugate() ** 2 * np.conj(wau) + ph.conjugate() ** 4 * np.conj(w3)
    terms = np.exp(1j * (tau - sc) * m.a_c) * (_fft.fft(g) / n)
    return SpectralField(grid, w @ terms)


def check_block_quadrature():
    """oscillatory_block against the quadrature oracle at c = 10, stepped from
    t_n = 0.37, where no branch phase is 1: O(tau^3) agreement, slope >= 2.7
    over tau = 2^-6..2^-12."""
    c, t_n = 10.0, 0.37
    m, u = _paper_data(c)
    block = [
        sobolev_norm(_block_quadrature(tau, t_n, u, m) - oscillatory_block(tau, t_n, u, m), _NORM_R)
        for tau in _TAUS
    ]
    return CheckResult("block_quadrature", *_slopes(c, {"block": block}, {"block": 2.7}))


def check_local_defects(cases=((1.0, 0.37), (100.0, 0.0))):
    """Single-step defects against the Duhamel oracle from t_n, per (c, t_n)
    case: slope >= 1.8 for uei1 and >= 2.7 for uei2.  c = 1 steps from 0.37,
    where no branch phase is 1; c = 100 from 0, as from 0.37 its uei2 slope
    reads 2.73, too near the floor."""
    results = []
    for c, t_n in cases:
        m, u = _paper_data(c)
        defects = {"uei1": [], "uei2": []}
        for tau in _TAUS:
            ctx = StepContext(m.grid, m, tau)
            oracle = duhamel_oracle_step(u, t_n, ctx, nodes=64)
            defects["uei1"].append(sobolev_norm(step_uei1_real(u, t_n, ctx) - oracle, _NORM_R))
            defects["uei2"].append(sobolev_norm(step_uei2_real(u, t_n, ctx) - oracle, _NORM_R))
        results.append(_slopes(c, defects, {"uei1": 1.8, "uei2": 2.7}))
    passed = all(ok for ok, _ in results)
    return CheckResult("local_defects", passed, "; ".join(d for _, d in results))


def run_all(fast: bool = False):
    """Run the verification suite; `fast` drops the c = 100 local-defect case."""
    checks = [
        check_operator_bounds(),
        check_stability_bounds(),
        check_omega_quadrature(),
        check_block_quadrature(),
        check_local_defects(cases=((1.0, 0.37),)) if fast else check_local_defects(),
    ]
    return checks
