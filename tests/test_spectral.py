import cmath
import math

import mpmath
import numpy as np
import pytest

from kguniform import (
    apply_symbol,
    conj_field,
    field_from_values,
    make_grid,
    make_multipliers,
    phi,
    phi_moment,
    sobolev_norm,
)
from kguniform.spectral import (
    _PHI_SERIES_CUTOFF,
    _phi_series,
    _to_coeffs,
    _to_phys,
)
from kguniform.verify import check_operator_bounds, check_stability_bounds

from conftest import const_field, random_field


# ---------------------------------------------------------------------------
# grid layout


def test_grid_layout():
    g = make_grid(1, 4)
    assert g.n_points == 8
    assert sorted(g.wavenumbers.astype(int)) == list(range(-4, 4))
    # standard FFT ordering: 0..K-1 then -K..-1
    assert list(g.wavenumbers[:4].astype(int)) == [0, 1, 2, 3]
    assert list(g.wavenumbers[4:].astype(int)) == [-4, -3, -2, -1]


def test_grid_full_scale_mesh():
    # the 1024-point grid (K = 512) has the reference mesh 2*pi/1024 ~ 0.0061
    g = make_grid(1, 512)
    assert g.n_points == 1024
    assert make_grid(1, 1024).n_points == 2048


@pytest.mark.parametrize("d,K", [(2, 8), (3, 4)])
def test_grid_rejects_dimension(d, K):
    with pytest.raises(ValueError, match="dimension"):
        make_grid(d, K)


def test_grid_rejects_small_size():
    with pytest.raises(ValueError, match="K"):
        make_grid(1, 1)


@pytest.mark.parametrize("K", [2.5, 4.0, True, "8"])
def test_grid_rejects_non_integer_size(K):
    # a float K built a grid of n_points 2K with fractional wavenumbers
    from kguniform.harness import SweepConfig

    with pytest.raises(ValueError, match="need an integer K"):
        make_grid(1, K)
    with pytest.raises(ValueError, match="need an integer K"):
        SweepConfig(K=K)


def test_grid_accepts_numpy_integer_size():
    g = make_grid(1, np.int32(4))
    assert type(g.modes) is int and g.n_points == 8
    assert np.array_equal(g.wavenumbers, make_grid(1, 4).wavenumbers)


@pytest.mark.parametrize("K", [64, 5])  # powers of two recommended, not required
def test_transform_roundtrip(rng, K):
    g = make_grid(1, K)
    vals = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
    f = field_from_values(g, vals)
    back = f.values()
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_constant_normalization():
    # coefficient convention: the constant 1 has u_0 = 1, so ||1||_r = 1
    g = make_grid(1, 16)
    f = field_from_values(g, np.ones(g.n_points))
    assert abs(f.coeffs[0] - 1.0) < 1e-14
    for r in (0.0, 1.0, 2.5):
        assert sobolev_norm(f, r) == pytest.approx(1.0, abs=1e-13)


def test_conj_field(rng):
    g = make_grid(1, 32)
    f = random_field(g, rng)
    assert np.max(np.abs(conj_field(f).values() - np.conj(f.values()))) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 10, 128, 512, 1024])
def test_transform_pair_is_numpy_fft_bitwise(rng, n):
    # _to_phys / _to_coeffs call numpy's pocketfft gufuncs directly; they
    # must be bitwise numpy.fft with norm="forward" (the kernels and factors
    # numpy.fft reaches), so a numpy that changes the private module fails here
    for shape in [(n,), (3, n), (2, 5, n)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for ours, public in [(_to_phys, np.fft.ifft), (_to_coeffs, np.fft.fft)]:
            want = public(x, norm="forward")
            assert np.array_equal(ours(x), want)
            out = np.empty_like(x)
            assert ours(x, out=out) is out and np.array_equal(out, want)
            y = x.copy()
            assert ours(y, out=y) is y and np.array_equal(y, want)
        assert np.array_equal(_to_coeffs(x.real), np.fft.fft(x.real, norm="forward"))


def test_spectral_import_names_the_numpy_floor(monkeypatch):
    # without numpy >= 2.0's gufunc module the import fails naming the floor
    import importlib.util
    import sys

    import numpy.fft

    from kguniform import spectral

    monkeypatch.delattr(numpy.fft, "_pocketfft_umath")
    monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
    spec = importlib.util.spec_from_file_location("_spectral_copy", spectral.__file__)
    with pytest.raises(ImportError, match=r"numpy >= 2\.0"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


# ---------------------------------------------------------------------------
# multipliers


def test_multiplier_values_c1():
    g = make_grid(1, 8)
    m = make_multipliers(g, 1.0)
    i1 = list(g.wavenumbers).index(1.0)
    # extended-precision oracle: naive and cancellation-free forms agree
    with mpmath.workdps(50):
        naive = mpmath.mpf(1) * mpmath.sqrt(2) - 1
        stable = mpmath.mpf(1) / (mpmath.sqrt(2) + 1)
        assert abs(naive - stable) < 1e-30
    assert m.a_c[i1] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)


def test_multiplier_zero_mode():
    g = make_grid(1, 8)
    for c in (0.5, 1.0, 123.0, 1e4):
        m = make_multipliers(g, c)
        assert m.a_c[0] == 0.0
        assert m.c_inv[0] == 1.0


def test_multiplier_large_c_no_cancellation():
    # a_c -> k^2/2 as c -> infinity; the naive form loses every digit here
    g = make_grid(1, 8)
    m = make_multipliers(g, 1e4)
    i1 = list(g.wavenumbers).index(1.0)
    with mpmath.workdps(50):
        c = mpmath.mpf(10000)
        exact = float(c * mpmath.sqrt(c * c + 1) - c * c)
    assert m.a_c[i1] == pytest.approx(exact, rel=1e-14)
    assert 0.0 < 0.5 - m.a_c[i1] < 0.5e-8


def test_multiplier_bounds():
    g = make_grid(1, 64)
    k2 = g.wavenumbers**2
    for c in (0.1, 1.0, 10.0, 1e4):
        m = make_multipliers(g, c)
        assert np.all(m.a_c >= 0.0)
        assert np.all(m.a_c <= 0.5 * k2 + 1e-12)
        assert np.all(m.c_inv > 0.0) and np.all(m.c_inv <= 1.0)


def test_multiplier_rejects_nonpositive_c():
    g = make_grid(1, 8)
    for c in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="invalid parameter c="):
            make_multipliers(g, c)


# ---------------------------------------------------------------------------
# phi functions


def _phi_taylor_mpmath(j, z, terms=40):
    with mpmath.workdps(40):
        zz = mpmath.mpc(z)
        return complex(mpmath.fsum(zz**n / mpmath.factorial(n + j) for n in range(terms)))


def test_phi_at_zero():
    assert phi(1, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi(2, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_phi_at_exact_zero_skips_the_series(monkeypatch):
    # an exact zero takes 1/j!, the series' own value there, without running
    # it: a _phi_table whose only small entry is its j = 0 entry x = 0 makes
    # no series call
    from kguniform import model, spectral

    for j, want in ((1, 1.0), (2, 0.5)):
        assert phi(j, 0) == want and phi(j, 0.0) == want
        assert np.array_equal(phi(j, np.zeros(3)), np.full(3, want, dtype=complex))
        assert phi(j, 0.0) == _phi_series(j, np.zeros(1, dtype=complex))[0]
    calls = []

    def counting(j, z):
        calls.append(j)
        return _phi_series(j, z)

    monkeypatch.setattr(spectral, "_phi_series", counting)
    x, phi1, phi2 = model._phi_table(100.0, 0.01)
    assert calls == []
    assert x[4] == 0 and phi1[4] == 1.0 and phi2[4] == 0.5
    phi(1, np.array([0.0, 1e-3]))  # a small nonzero entry still takes the series
    assert calls == [1]


def test_phi_rejects_bad_index():
    for j in (0, 3):
        with pytest.raises(ValueError, match="phi index"):
            phi(j, 1.0)


@pytest.mark.parametrize("j", [1, 2])
def test_phi_matches_taylor_reference(j):
    # 40-term Taylor oracle in 40-digit arithmetic, |z| <= 1
    for radius in (1e-3, 1e-2, 0.05, 0.0999, 0.1001, 0.3, 1.0):
        for ang in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            z = radius * complex(np.cos(ang), np.sin(ang))
            ref = _phi_taylor_mpmath(j, z)
            assert abs(phi(j, z) - ref) <= 1e-13


@pytest.mark.parametrize("j", [1, 2])
def test_phi_matches_direct_large(j):
    for z in (2.0, -3.0 + 1.0j, 10.0j, -40.0j, 200.0j, 1e6j):
        with mpmath.workdps(40):
            zz = mpmath.mpc(z)
            if j == 1:
                ref = complex((mpmath.e**zz - 1) / zz)
            else:
                ref = complex((mpmath.e**zz - 1 - zz) / zz**2)
        assert abs(phi(j, z) - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("j", [1, 2])
def test_phi_past_the_square_overflow(j):
    # |z|^2 overflows past |z| ~ 1.3e154, which a sweep at c = 5e153 reaches;
    # under the suite's warnings-as-errors an overflow warning fails here
    z = 2e154j
    em1 = cmath.exp(z) - 1
    ref = em1 / z if j == 1 else (em1 - z) / z / z
    assert abs(phi(j, z) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("j", [1, 2])
def test_phi_branches_agree_on_ring(j):
    # series and closed form evaluated at the same points near the cutoff
    for ang in np.linspace(0.0, 2 * np.pi, 24, endpoint=False):
        z = _PHI_SERIES_CUTOFF * complex(np.cos(ang), np.sin(ang))
        series = _phi_series(j, np.array([z]))[0]
        direct = (np.expm1(z) - (z if j == 2 else 0.0)) / z**j
        assert abs(series - direct) <= 1e-12


@pytest.mark.parametrize("j", [1, 2])
def test_phi_scalar_path_matches_array_path(j):
    # a scalar goes through the array path: bitwise the matching entry of one
    # stacked call, on both sides of the series cutoff, on the axes and off them
    radii = np.concatenate(
        [np.geomspace(1e-8, 50.0, 200), _PHI_SERIES_CUTOFF * (1.0 + np.linspace(-1e-3, 1e-3, 41))]
    )
    angles = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
    z = (radii[:, None] * np.exp(1j * angles)).ravel()
    z = np.concatenate([z, radii, -radii, 1j * radii, -1j * radii])
    arr = phi(j, z)
    scalars = np.array([phi(j, complex(x)) for x in z])
    assert np.array_equal(scalars, arr)
    assert isinstance(phi(j, 0.05), complex) and isinstance(phi(j, np.float64(3.0)), complex)


def test_phi_example_ipi():
    # phi_1(i pi) = (e^{i pi} - 1)/(i pi) = 2i/pi
    assert phi(1, 1j * np.pi) == pytest.approx(2j / np.pi, abs=1e-14)


def test_phi_moment_is_first_moment():
    # int_0^1 theta e^(theta z) dtheta, checked by mpmath quadrature
    for z in (0.03j, 2.0j, -5.0 + 1.0j, 0.0):
        with mpmath.workdps(30):
            ref = complex(mpmath.quad(lambda t: t * mpmath.e ** (t * mpmath.mpc(z)), [0, 1]))
        assert abs(phi_moment(z) - ref) <= 1e-13


# ---------------------------------------------------------------------------
# operator application


def test_apply_symbol_identity_and_shape(rng):
    g = make_grid(1, 16)
    f = random_field(g, rng)
    assert np.array_equal(apply_symbol(np.ones(g.n_points), f).coeffs, f.coeffs)
    with pytest.raises(ValueError, match="shape"):
        apply_symbol(np.ones(g.n_points + 1), f)


def test_apply_a_c_kills_constants():
    g = make_grid(1, 16)
    m = make_multipliers(g, 3.0)
    out = apply_symbol(m.a_c, const_field(g, 2.0 + 1.0j))
    assert sobolev_norm(out, 0.0) == 0.0


def test_laplace_on_plane_wave():
    g = make_grid(1, 16)
    m = make_multipliers(g, 1.0)
    f = field_from_values(g, np.exp(1j * g.x))
    out = apply_symbol(m.laplace, f)
    assert np.max(np.abs(out.values() + f.values())) < 1e-13


def test_phi2_resonant_contraction(rng):
    # scalar oracle: |phi_2(iy)| <= 1/2 on the imaginary axis
    ys = np.linspace(-80.0, 80.0, 8001)
    assert np.max(np.abs(phi(2, 1j * ys))) <= 0.5 + 1e-12
    g = make_grid(1, 32)
    tau, c = 0.01, 5.0
    sym = 1j * tau * (2 * c * c + 0.5 * g.wavenumbers**2)
    assert np.all(np.abs(sym) > 0)  # resonant symbol never vanishes for c > 0
    f = random_field(g, rng)
    out = apply_symbol(phi(2, sym), f)
    assert sobolev_norm(out, 1.0) <= 0.5 * sobolev_norm(f, 1.0) + 1e-12


# ---------------------------------------------------------------------------
# Sobolev norm


def test_sobolev_examples():
    g = make_grid(1, 16)
    one = field_from_values(g, np.ones(g.n_points))
    for r in (0.0, 1.0, 3.0):
        assert sobolev_norm(one, r) == pytest.approx(1.0, abs=1e-14)
    wave = field_from_values(g, np.exp(1j * g.x))
    assert sobolev_norm(wave, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    with pytest.raises(ValueError, match="r"):
        sobolev_norm(one, -0.5)


def test_sobolev_triangle_inequality(rng):
    g = make_grid(1, 32)
    for _ in range(25):
        f = random_field(g, rng)
        h = random_field(g, rng)
        assert sobolev_norm(f + h, 1.0) <= sobolev_norm(f, 1.0) + sobolev_norm(h, 1.0) + 1e-12


# ---------------------------------------------------------------------------
# operator norm bounds (module invariants)


def test_operator_bound_suite():
    res = check_operator_bounds()
    assert res.passed, res.detail


def _operator_bounds_loop():
    """check_operator_bounds mode by mode and t by t: the worst margin, from
    -inf, with each symbol written from its definition."""
    worst = -math.inf
    ts = [j / 100.0 for j in range(-100, 101)]
    for c in (1.0, 10.0, 100.0, 1e4):
        for k in range(-64, 64):
            w = 1.0 + k * k
            bracket = math.sqrt(c * c + k * k)
            a = c * k * k / (bracket + c)
            worst = max(worst, a / w - 0.5 - 1e-10, c / bracket - 1.0 - 1e-12)
            for t in ts:
                e = cmath.exp(1j * t * a)
                worst = max(
                    worst,
                    abs(abs(e) - 1.0) - 1e-12,
                    abs(e - 1.0) / w - 0.5 * abs(t) - 1e-10,
                )
    return worst


def _stability_bounds_loop():
    """check_stability_bounds pair by pair: C for each c, the worst ratio over
    every single-mode pair (v, w) = (e_a, e_b), each product v A_c w taken
    through numpy.fft, each symbol and H^1 norm written from its definition."""
    grid = make_grid(1, 64)
    n = grid.n_points
    k = grid.wavenumbers

    def h1(co):
        return np.sqrt(np.sum((1.0 + k * k) * np.abs(co) ** 2, axis=-1))

    modes = np.eye(n, dtype=np.complex128)  # row b: the coefficients of e_b
    norms = h1(modes)
    ratios = {}
    for c in (1.0, 10.0, 100.0, 1e4):
        m = make_multipliers(grid, c)
        aw = np.fft.ifft(m.a_c * modes) * n  # row b: samples of A_c e_b
        kernels = [
            (tau, phi_moment(s))
            for tau in (1e-3, 1e-2, 1e-1)
            for s in (
                -1j * tau * (c * c + c * m.bracket_c),
                -1j * tau * (3 * c * c + c * m.bracket_c),
                1j * tau * (2 * c * c + 0.5 * k * k),
            )
        ]
        worst = 0.0
        for a in range(n):
            # row b: coefficients of e_a A_c e_b
            ph = np.fft.fft(np.fft.ifft(modes[a]) * n * aw) / n
            for tau, kern in kernels:
                val = tau * tau * h1(kern * ph) / (tau * norms[a] * norms)
                worst = max(worst, float(np.max(val)))
        ratios[c] = worst
    return ratios


def test_bound_checks_match_their_per_field_loops():
    # the operator check reads what a loop over (c, mode, t) reads, and its
    # margin is below 0, not clamped to it; the stability check reads what
    # the products of every single-mode pair read
    worst = _operator_bounds_loop()
    assert worst < 0.0
    res = check_operator_bounds()
    assert res.detail == f"worst bound violation {worst:.3e} over 128 modes x 201 t x 4 c values"
    res = check_stability_bounds()
    assert res.detail == ", ".join(f"C(c={c:g})={v:.3g}" for c, v in _stability_bounds_loop().items())


def test_package_imports_no_scipy():
    # numpy is the one runtime dependency: importing the package, its
    # verify suite and its CLI loads no scipy module
    import os
    import subprocess
    import sys

    import kguniform

    src = os.path.dirname(os.path.dirname(kguniform.__file__))
    code = (
        "import sys, kguniform, kguniform.verify, kguniform.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
