"""Fourier substrate for the Klein-Gordon solvers.

Everything lives on the torus [0, 2pi) sampled at 2K equispaced points,
with integer wavenumbers k in {-K, ..., K-1} in standard FFT layout.
Fourier coefficients are the canonical state representation and are
normalized so that the constant function 1 has coefficient 1 at k = 0,
i.e. coeffs = fft(values) / n_points.  This module owns that convention:
every solver and the Duhamel oracle transform through _to_phys and
_to_coeffs, the one transform pair, which calls numpy's pocketfft gufuncs
fft and ifft, the one binding _fft, with numpy.fft's norm="forward"
factors, directly to skip its Python wrapper.  With that normalization the
Sobolev norm is

    ||u||_r^2 = sum_k (1 + |k|^2)^r |u_k|^2,

so ||1||_r = 1 for every r.

The module also provides the diagonal operator symbols used throughout:

    <grad>_c       = sqrt(c^2 - Delta)      -> sqrt(c^2 + k^2)
    A_c            = c <grad>_c - c^2       -> c k^2 / (sqrt(c^2 + k^2) + c)
    c <grad>_c^-1                           -> c / sqrt(c^2 + k^2)
    Delta                                   -> -k^2

A_c is evaluated in the cancellation-free form shown above; the naive
c*sqrt(c^2+k^2) - c^2 loses all significant digits at large c (at
c = 1e4, k = 1 it retains none).

phi functions: phi_1(z) = (e^z - 1)/z, phi_2(z) = (e^z - 1 - z)/z^2, and the
first-moment kernel phi_moment(z) = int_0^1 theta e^(theta z) dtheta
= phi_1(z) - phi_2(z), which is the exact kernel of
int_0^tau s e^(s B) ds = tau^2 phi_moment(tau B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

try:  # the gufunc module and its out= first appear in numpy 2.0
    from numpy.fft import _pocketfft_umath as _fft
except ImportError as exc:
    raise ImportError("kguniform needs numpy >= 2.0 (numpy.fft._pocketfft_umath)") from exc

__all__ = [
    "SpectralGrid",
    "SpectralField",
    "MultiplierSet",
    "make_grid",
    "make_multipliers",
    "field_from_values",
    "conj_field",
    "apply_symbol",
    "phi",
    "phi_moment",
    "sobolev_norm",
]


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Periodic grid with 2K points and wavenumbers {-K, ..., K-1}."""

    modes: int
    wavenumbers: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return 2 * self.modes


def make_grid(d: int, K: int) -> SpectralGrid:
    """Build the 1-d spectral grid with 2K points.

    Only d = 1 is implemented; K must be a Python or numpy integer >= 2, not
    a bool (powers of two give the fastest transforms but any size is accepted).
    """
    if d != 1:
        raise ValueError(f"unsupported dimension d={d}; only d=1 is implemented")
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)):
        raise ValueError(f"invalid grid size K={K!r}; need an integer K")
    K = int(K)
    if K < 2:
        raise ValueError(f"invalid grid size K={K}; need K >= 2")
    n = 2 * K
    k = np.concatenate([np.arange(0, K), np.arange(-K, 0)]).astype(np.float64)
    x = 2.0 * np.pi * np.arange(n) / n
    return SpectralGrid(modes=K, wavenumbers=k, x=x)


def _to_phys(coeffs, out=None):
    """Physical samples of coefficient vectors (rows of a stack alike),
    written into `out` when given; `out` may be `coeffs` itself."""
    if out is None:
        out = np.empty(coeffs.shape, dtype=np.complex128)
    return _fft.ifft(coeffs, 1.0, out=out)


def _to_coeffs(vals, out=None):
    """Coefficients of physical samples (rows of a stack alike, real or
    complex), written into `out` when given; `out` may be `vals` itself."""
    if out is None:
        out = np.empty(vals.shape, dtype=np.complex128)
    return _fft.fft(vals, 1.0 / vals.shape[-1], out=out)


def _conjrefl(coeffs: np.ndarray, out=None) -> np.ndarray:
    """Fourier-side image of physical conjugation, k -> -k and conjugation
    (of each row of a stack alike; mode -K is its own image), written into
    `out` when given.  Two slices, not an index array: gathering by index
    costs more on a stack."""
    if out is None:
        out = np.empty_like(coeffs)
    out[..., :1] = coeffs[..., :1]
    out[..., 1:] = coeffs[..., :0:-1]
    return np.conj(out, out=out)


@dataclass(eq=False)
class SpectralField:
    """Complex field on a SpectralGrid, stored as Fourier coefficients."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.grid.n_points,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({self.grid.n_points},)"
            )

    def values(self) -> np.ndarray:
        """Physical-space samples at the grid points."""
        return _to_phys(self.coeffs)

    def __add__(self, other):
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def field_from_values(grid: SpectralGrid, values: np.ndarray) -> SpectralField:
    """Transform physical samples to the canonical coefficient form."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (grid.n_points,):
        raise ValueError(
            f"value vector has shape {values.shape}, expected ({grid.n_points},)"
        )
    return SpectralField(grid, _to_coeffs(values))


def conj_field(f: SpectralField) -> SpectralField:
    """Complex conjugate in physical space: coefficient reversal plus conjugation."""
    return SpectralField(f.grid, _conjrefl(f.coeffs))


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Diagonal Fourier symbols for a fixed (grid, c)."""

    grid: SpectralGrid
    c: float
    bracket_c: np.ndarray = field(repr=False)
    a_c: np.ndarray = field(repr=False)
    c_inv: np.ndarray = field(repr=False)
    laplace: np.ndarray = field(repr=False)


def make_multipliers(grid: SpectralGrid, c: float) -> MultiplierSet:
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"invalid parameter c={c}; need finite c > 0")
    k2 = grid.wavenumbers**2
    bracket = np.sqrt(c * c + k2)
    a_c = c * k2 / (bracket + c)
    c_inv = c / bracket
    return MultiplierSet(
        grid=grid, c=float(c), bracket_c=bracket, a_c=a_c, c_inv=c_inv, laplace=-k2
    )


# phi evaluation: closed forms cancel catastrophically near z = 0 (phi_2
# loses ~4 digits already at |z| = 1e-2), so below this radius the Taylor
# series sum_n z^n / (n+j)! is used.  17 terms reach full double precision
# at the cutoff with a wide margin.
_PHI_SERIES_CUTOFF = 0.1
_PHI_SERIES_TERMS = 17
_INV_FACTORIALS = [1.0 / math.factorial(n) for n in range(_PHI_SERIES_TERMS + 2)]


def _phi_series(j: int, z):
    """sum_n z^n / (n + j)! by Horner's rule on an array."""
    out = 0.0 * z
    for n in range(_PHI_SERIES_TERMS - 1, -1, -1):
        out = out * z + _INV_FACTORIALS[n + j]
    return out


def phi(j: int, z):
    """phi_1(z) = (e^z - 1)/z and phi_2(z) = (e^z - 1 - z)/z^2.

    Entire functions, evaluated elementwise on one array path: an array in
    gives an array out, and a scalar in gives a numpy complex scalar out (a
    `complex`), bitwise the matching entry of a stacked call, so callers
    needing several values stack them into one call.  Small nonzero
    arguments are evaluated by Taylor series (see _PHI_SERIES_CUTOFF), and
    an exact zero gives 1/j!, the series' value there.
    """
    if j not in (1, 2):
        raise ValueError(f"invalid phi index j={j}; need j in {{1, 2}}")
    zarr = np.asarray(z, dtype=np.complex128)
    zero = zarr == 0
    big = ~(zarr.real**2 + zarr.imag**2 < _PHI_SERIES_CUTOFF**2)
    small = ~(big | zero)
    out = np.empty_like(zarr)
    out[zero] = _INV_FACTORIALS[j]  # the series' value at 0, without its Horner steps
    if small.any():
        out[small] = _phi_series(j, zarr[small])
    if big.any():
        zb = zarr[big]
        em1 = np.expm1(zb)
        out[big] = em1 / zb if j == 1 else (em1 - zb) / zb / zb
    return out[()]


def phi_moment(z):
    """First-moment kernel int_0^1 theta e^(theta z) dtheta = phi_1(z) - phi_2(z).

    Exactly the kernel appearing in int_0^tau s e^(s B) ds = tau^2 phi_moment(tau B);
    no cancellation occurs in the difference (its value at 0 is 1/2).
    """
    return phi(1, z) - phi(2, z)


def apply_symbol(symbol: np.ndarray, f: SpectralField) -> SpectralField:
    """Multiply the coefficients by a diagonal Fourier symbol."""
    symbol = np.asarray(symbol)
    if symbol.shape != f.coeffs.shape:
        raise ValueError(
            f"symbol has shape {symbol.shape}, field has {f.coeffs.shape}"
        )
    return SpectralField(f.grid, symbol * f.coeffs)


def sobolev_norm(f: SpectralField, r: float) -> float:
    """Discrete H^r norm: sqrt(sum_k (1 + |k|^2)^r |u_k|^2)."""
    return float(_sobolev_norms(f.grid, f.coeffs, r))


def _sobolev_norms(grid: SpectralGrid, coeffs: np.ndarray, r: float) -> np.ndarray:
    """sobolev_norm of each coefficient row of a stack, one reduction over
    the last axis (a row's norm is bitwise the norm of its field)."""
    if r < 0:
        raise ValueError(f"need r >= 0, got r={r}")
    w = (1.0 + grid.wavenumbers**2) ** r
    return np.sqrt(np.sum(w * np.abs(coeffs) ** 2, axis=-1))
