"""The mutation table: each row replaces one name in model, integrators or
verify by a mutant and names the checks that must fail under it, so a
refactor that leaves a check unable to see a known bug fails here.

A row's mutant is a function of the name's original.  A check is a verify
check by its CheckResult name, the Tier-1 symmetry test of one scheme as
"symmetries[<scheme>]", or "oracle_uniform", the Tier-1 test of the defects
up to c = 1e4.  A row's detail is text that every failing check's detail must
contain.  A known miss is a strict xfail that names the ROADMAP item that
would catch it; when the item lands, the row passes and must be updated.
"""

import dataclasses

import numpy as np
import pytest

from kguniform import SchemeId, integrators, make_grid, model, verify

from test_integrators import _broken_symmetries, _oracle_uniformity_faults

_TIER1 = {
    "oracle_uniform": _oracle_uniformity_faults,
    **{f"symmetries[{s.value}]": lambda s=s: _broken_symmetries(s) for s in SchemeId},
}
_BAD_TAU = 2.0**-9


def _failure(check):
    """The failure detail of the named check, or None if it passes."""
    if check in _TIER1:
        return "; ".join(_TIER1[check]()) or None
    res = getattr(verify, f"check_{check}")()
    return None if res.passed else res.detail


def _nan_at_bad_tau(tau, field):
    if tau == _BAD_TAU:
        field.coeffs[:] = np.nan
    return field


def _at_nyquist(grid, factor):
    return np.where(np.abs(grid.wavenumbers) == 64, factor, 1.0)


def _scaled_symbol(name, factor):
    """A mutant of make_multipliers whose symbol `name` is times factor(grid)."""

    def mutant(make):
        def scaled(grid, c):
            m = make(grid, c)
            return dataclasses.replace(m, **{name: factor(grid) * getattr(m, name)})

        return scaled

    return mutant


def _phi1_only_weights(table, ls):
    """_omega_weights from plain phi_1 differences at every radius."""
    x, phi1, _ = table
    a = (np.array(ls)[:, None] + 8) // 2
    b = a + np.array([1, -1, -2])
    return ((phi1[b] - phi1[a]) / (x[b] - x[a])).tolist()


def _doubled_phi1(init):
    def mutant(self, m, tau):
        init(self, m, tau)
        self.phi1 = [2.0 * w for w in self.phi1]

    return mutant


def _cube_o2p(p, wp, phases, weights):
    """_branches with the cube o^2 p of each row p and its partner o in place of p^2 o."""
    (p2, m2, m4), (w1, w2, w3) = phases, weights
    a = model._partner(p) ** 2 * p
    return p2 * w1 * a + m2 * w2 * np.conj(model._partner(wp)) + m4 * w3 * np.conj(model._partner(a))


def _conj_only(coeffs, out=None):
    """_conjrefl without the k -> -k reflection."""
    return np.conj(coeffs, out=out)


def _bug2(init):
    """Bug 2: UEI2 forms A_c as c<grad>_c - c^2, which cancels ~8 digits at c = 1e4."""
    return lambda self, m, tau: init(
        self, dataclasses.replace(m, a_c=m.c * m.bracket_c - m.c**2), tau
    )


def _row(id, owner, name, mutant, must_fail, detail="", marks=()):
    return pytest.param(owner, name, mutant, must_fail, detail, id=id, marks=marks)


_ROWS = [
    _row(
        "nan-uei2-step", verify, "step_uei2_real",
        lambda f: lambda u, t_n, ctx: _nan_at_bad_tau(ctx.tau, f(u, t_n, ctx)),
        ("local_defects",), f"c=1: uei2 defect nan at tau={_BAD_TAU:g}",
    ),
    # invisible from t_n = 0, where every phase is 1; the c = 1 case steps from 0.37
    _row(
        "step-phases-at-t0", integrators, "phase_factor",
        lambda f: lambda l, c, t, k=0, tau=1.0: f(l, c, 0.0 if l == 2 else t, k, tau),
        ("local_defects",),
    ),
    # verify's own phase_factor and weights form the quadrature, so only the closed form moves
    _row(
        "omega-weights-scaled-1e-11", model, "_omega_weights",
        lambda f: lambda table, ls: [[(1 + 1e-11) * w for w in ws] for ws in f(table, ls)],
        ("omega_quadrature",),
    ),
    _row(
        "omega-phases-at-t0", model, "phase_factor",
        lambda f: lambda l, c, t, *args: f(l, c, 0.0, *args), ("omega_quadrature",),
    ),
    _row(
        "omega-branches-2-and-minus-2-swapped", model, "_omega_weights",
        lambda f: lambda table, ls: [[w2, w1, w3] for w1, w2, w3 in f(table, ls)],
        ("omega_quadrature",),
    ),
    _row(
        "nan-block", verify, "oscillatory_block",
        lambda f: lambda tau, t_n, u, m: _nan_at_bad_tau(tau, f(tau, t_n, u, m)),
        ("block_quadrature",), f"c=10: block defect nan at tau={_BAD_TAU:g}",
    ),
    _row(
        "c-inv-scaled-1.01", verify, "make_multipliers",
        _scaled_symbol("c_inv", lambda grid: 1.01), ("operator_bounds",),
    ),
    # A_c/(1+k^2) = 0.50037 at k = -64, c = 1e4
    _row(
        "a-c-scaled-1.001-at-nyquist", verify, "make_multipliers",
        _scaled_symbol("a_c", lambda grid: _at_nyquist(grid, 1.001)), ("operator_bounds",),
    ),
    # every C scales alike, so only the bound of 25 sees it (x20 reads 23.97)
    _row(
        "phi-moment-x200", verify, "phi_moment",
        lambda f: lambda z: 200.0 * f(z), ("stability_bounds",), "C(c=1)=240,",
    ),
    # C(c=1) reads 28.1
    _row(
        "phi-moment-x30-at-nyquist", verify, "phi_moment",
        lambda f: lambda z: _at_nyquist(make_grid(1, 64), 30.0) * f(z), ("stability_bounds",),
    ),
    # reads 5.379e-11; only the c = 1, tau = 1e-6 case sees it
    _row(
        "omega-weights-phi1-only", model, "_omega_weights",
        lambda f: _phi1_only_weights, ("omega_quadrature",),
    ),
    # uei1 reads 1.00 at c = 1
    _row(
        "uei1-phi1-doubled", model._Uei1Stepper, "__init__", _doubled_phi1, ("local_defects",),
    ),
    # stage 3 scales its p2 rows by m2: block 0.94, uei2 1.00 at c = 1
    _row(
        "uei2-p2-rows-by-m2", model._Uei2Stepper, "_rows",
        lambda f: lambda self, lifted, phases, w: f(self, lifted, (phases[1], *phases[1:]), w),
        ("block_quadrature", "local_defects"),
    ),
    _row(
        "nyquist-wave-1e-9-in-branches", model, "_branches",
        lambda f: lambda *args: f(*args) + 1e-9 * (-1.0) ** np.arange(2 * verify._K),
        ("omega_quadrature",),
    ),
    _row(
        "branch-cube-o2p", model, "_branches", lambda f: _cube_o2p,
        ("symmetries[uei1]",), "gauge",
    ),
    _row(
        "both-rows-take-w-u", model, "_row_weights",
        lambda f: lambda p: f(p)[[0, 0]] if p.ndim == 2 else f(p),
        ("symmetries[uei1]",), "swap",
    ),
    _row(
        "conjrefl-without-reflection", model, "_conjrefl", lambda f: _conj_only,
        ("symmetries[uei2]",), "translation",
    ),
    # block 0.82, uei2 1.00 at c = 1
    _row(
        "conjrefl-without-reflection-verify", model, "_conjrefl", lambda f: _conj_only,
        ("block_quadrature", "local_defects"),
    ),
    _row("bug-2", model._Uei2Stepper, "__init__", _bug2, ("oracle_uniform",)),
    _row(
        "bug-2-verify", model._Uei2Stepper, "__init__", _bug2, ("local_defects",),
        marks=pytest.mark.xfail(
            raises=AssertionError,
            strict=True,
            reason="ROADMAP item 14: no verify check steps UEI2 at c = 1e4",
        ),
    ),
]


@pytest.mark.parametrize("owner, name, mutant, must_fail, detail", _ROWS)
def test_mutation_fails_its_checks(monkeypatch, owner, name, mutant, must_fail, detail):
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    for check in must_fail:
        failure = _failure(check)
        assert failure is not None, f"{check} passes"
        assert detail in failure, failure


def test_every_verify_check_has_a_must_fail_row():
    caught = {check for row in _ROWS if not row.marks for check in row.values[3]}
    assert {res.name for res in verify.run_all()} <= caught
