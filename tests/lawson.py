"""An independent reference solution: a Lawson RK4 on the twisted pair.

Lawson's generalized Runge-Kutta method (Lawson, SIAM J. Numer. Anal. 4,
1967) applies the exact propagator e^(i t A_c) to the linear part and
classical RK4 to the rest of

    u*' = i A_c u* - i c<grad>_c^-1 e^(-i c^2 t) F[|z|^2 z],
    v*' = i A_c v* - i c<grad>_c^-1 e^(-i c^2 t) F[|z|^2 conj(z)],
    z = (e^(i c^2 t) u* + e^(-i c^2 t) conj(v*)) / 2.

It is written from the equation, not from kguniform.model: it makes its own
numpy.fft calls, forms z and its phases itself (in float64, accurate while
c^2 T stays near 1e3 rad or below) and shares only the symbols A_c and
c<grad>_c^-1 of make_multipliers.  Its cost grows as c^2, so it serves
c <= 100.
"""

import math

import numpy as np


def _conj(coeffs):
    """Coefficients of the conjugate field: k -> -k and conjugation."""
    return np.conj(np.roll(coeffs[..., ::-1], 1, axis=-1))


# the fewest steps: at c = 1 and T = 0.1, 16 T c^2 is 2 steps, and runs of
# 2,000 and 4,000 differ by 5e-14 in H^1
_MIN_STEPS = 2000


def lawson_z(state, m, T):
    """Coefficients of z(T) from the KgState `state` at t = 0, by n Lawson RK4
    steps, n = max(_MIN_STEPS, ceil(16 T c^2)): at most 0.25 rad of the
    fastest branch e^(-4 i c^2 t) per step."""
    c2 = m.c * m.c
    n = max(_MIN_STEPS, math.ceil(16.0 * T * c2))
    h = T / n
    # u = z - i c^-1 <grad>_c^-1 z_t and v the same for conj(z); at t = 0
    # the twisted pair (u*, v*) is (u, v)
    lift = -1j * m.c_inv / c2
    z0, zt0 = state.z.coeffs, state.zt.coeffs
    y = np.stack([z0 + lift * zt0, _conj(z0) + lift * _conj(zt0)])
    gain = -1j * m.c_inv
    half, full = np.exp(0.5j * h * m.a_c), np.exp(1j * h * m.a_c)

    def z_of(t, y):
        e = np.exp(1j * (c2 * t))
        u, v = np.fft.ifft(y, norm="forward")
        return e, 0.5 * (e * u + np.conj(e * v))

    def rhs(t, y):
        e, z = z_of(t, y)
        cubes = (z * np.conj(z)).real * np.stack([z, np.conj(z)])
        return (gain * np.conj(e)) * np.fft.fft(cubes, norm="forward")

    for j in range(n):
        t = j * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, half * (y + 0.5 * h * k1))
        k3 = rhs(t + 0.5 * h, half * y + 0.5 * h * k2)
        k4 = rhs(t + h, full * y + h * half * k3)
        y = full * (y + (h / 6.0) * k1) + (h / 3.0) * half * (k2 + k3) + (h / 6.0) * k4
    return np.fft.fft(z_of(T, y)[1], norm="forward")
