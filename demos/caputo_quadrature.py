"""Evaluate Caputo derivatives by the singularity-free substitution rule.

The derivative of t^3 has the closed form Gamma(4)/Gamma(4-a) t^(3-a), so
we can watch the quadrature converge as the step is halved.  The observed
order tracks n - a + 1 (n = ceil(a)): sub-second-order for a close to n,
nearly quadratic for a close to n - 1.
"""

import math

import numpy as np

from fracsubst import Grid, caputo_power, caputo_substitution, caputo_substitution_sampled

for alpha in (0.3, 0.8, 1.5):
    n = math.ceil(alpha)
    dnf = (lambda x: 3.0 * x * x) if n == 1 else (lambda x: 6.0 * x)
    exact = caputo_power(alpha, 3, 1.0)
    print(f"\nD^{alpha} t^3 at t=1: exact {exact:.10f}")
    print(f"{'h':>10} {'quadrature':>14} {'error':>10} {'order':>6}")
    prev = None
    for p in range(4, 11):
        grid = Grid.uniform_grid(2.0**-p, 2**p)
        approx = caputo_substitution(dnf, alpha, grid)
        err = abs(approx - exact)
        order = f"{math.log2(prev / err):.2f}" if prev else "  --"
        print(f"{2.0**-p:10.6f} {approx:14.10f} {err:10.2e} {order:>6}")
        prev = err

# The sampled variant needs only function values: the classical derivatives
# under the integral are replaced by finite-difference stencils.
grid = Grid.uniform_grid(2.0**-9, 2**9)
sampled = caputo_substitution_sampled(grid.nodes**3, 0.8, grid)
print(f"\nstencil-sampled D^0.8 t^3 at t=1: {sampled:.8f} "
      f"(exact {caputo_power(0.8, 3, 1.0):.8f})")

# Non-uniform grids are fine for the quadrature itself; refining toward the
# evaluation point pays off because that is where the weights concentrate.
graded = 1.0 - np.linspace(0.0, 1.0, 513)[::-1] ** 2
graded[0] = 0.0
value = caputo_substitution(lambda x: 3 * x * x, 0.8, Grid(np.sort(graded)))
print(f"graded-grid D^0.8 t^3 at t=1:       {value:.8f}")
