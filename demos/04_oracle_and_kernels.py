"""Trust, but verify: the quadrature oracle and the closed-form kernels.

Two independent routes compute the same objects:

  * duhamel_oracle_step discretizes the exact mild-solution formula with
    composite Gauss-Legendre panels and Picard iteration; the one-step
    defect of a scheme against it reveals the scheme's local order
    (2 for the first-order scheme, 3 for the second-order one).

  * the oscillatory kernels (Omega and the second-order branch block) have
    closed forms built from phi_1 difference quotients; plain quadrature of
    their defining integrals must reproduce them.
"""

import numpy as np

from kguniform import (
    StepContext,
    duhamel_oracle_step,
    kernel_omega,
    kernel_psi,
    make_grid,
    make_multipliers,
    paper_initial_data,
    sobolev_norm,
    step_uei1_real,
    step_uei2_real,
    to_first_order,
)
from kguniform.harness import fit_order

grid = make_grid(1, 64)

print("single-step defect against the Duhamel oracle")
for c in (1.0, 100.0):
    m = make_multipliers(grid, c)
    s0 = paper_initial_data(grid, c)
    u0, _ = to_first_order(s0, m)
    pts1, pts2 = [], []
    for me in range(6, 13):
        tau = 2.0**-me
        ctx = StepContext(grid, m, tau)
        oracle = duhamel_oracle_step(u0, 0.0, ctx, nodes=64)
        pts1.append((tau, sobolev_norm(step_uei1_real(u0, 0.0, ctx) - oracle, 1.0)))
        pts2.append((tau, sobolev_norm(step_uei2_real(u0, 0.0, ctx) - oracle, 1.0)))
    print(f"  c = {c:>5g}: local order uei1 = {fit_order(pts1):.2f} (expect ~2), "
          f"uei2 = {fit_order(pts2):.2f} (expect ~3)")

print("\nOmega kernels against 64-node quadrature of their defining integral")
c, tau, t_n = 10.0, 0.01, 0.37
m = make_multipliers(grid, c)
s0 = paper_initial_data(grid, c)
v, _ = to_first_order(s0, m)
nodes, weights = np.polynomial.legendre.leggauss(64)
s_nodes = 0.5 * tau * (nodes + 1.0)
w_nodes = 0.5 * tau * weights
for l in (-4, -2, 2):
    acc = np.zeros(grid.n_points, dtype=complex)
    for s, w in zip(s_nodes, w_nodes):
        acc += w * np.exp(1j * l * c * c * s) * kernel_psi(t_n, s, v, c).values()
    quad = np.fft.fft(acc / tau**2) / grid.n_points
    diff = np.max(np.abs(quad - kernel_omega(t_n, tau, v, c, l).coeffs))
    print(f"  l = {l:+d}: max |closed form - quadrature| = {diff:.2e}")
