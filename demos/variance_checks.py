"""Monte Carlo verification of the smoothing-estimator variance theory.

Three short experiments on a linear function (whose gradient and value
Lipschitz constant are known exactly):

  1. the largest eigenvalue of the sample covariance of gsg stays under the
     closed-form kappa, and halves when N doubles;
  2. the Chebyshev sample size keeps the miss frequency of the accuracy
     target far below delta;
  3. one Gaussian moment identity checked at 3 standard errors, the same
     machinery the verify-bounds CLI runs for all seven.

Run:  python3 demos/variance_checks.py
"""

import math

import numpy as np

from dfoline import (
    RngStream,
    gsg_covariance_top,
    gsg_misses,
    gsg_sample_size,
    gsg_variance_bound,
    moment_identity_check,
)

REPS = 20_000


def main():
    n, g_norm = 4, 2.0
    a = np.full(n, g_norm / math.sqrt(n))

    print(f"linear function, n = {n}, ||grad|| = L_f = {g_norm:g}\n")
    print("covariance domination (sample top eigenvalue vs kappa):")
    for N in (1, 2, 4):
        top = gsg_covariance_top(a, N, RngStream(41, 1, (N,)), REPS)
        kappa = gsg_variance_bound(g_norm, g_norm, n, N)
        print(f"  N={N}: top eig {top:8.3f}  kappa {kappa:8.3f}  ratio {top / kappa:.3f}")

    delta, theta = 0.1, 0.25
    r_target = theta * g_norm
    N = gsg_sample_size(g_norm, g_norm, n, delta, r_target)
    trials = 400
    misses = gsg_misses(a, N, r_target, RngStream(0, 1), trials)
    print(f"\nsample size: N = {N} for delta = {delta}, r = theta ||grad|| = {r_target}")
    print(f"  miss frequency {misses / trials:.4f} (guarantee {delta}, Chebyshev is loose)")

    res = moment_identity_check(2, n, samples=200_000, rng=RngStream(7))
    print("\nmoment identity E[(u^T u) u u^T] = (n+2) I:")
    print(f"  max deviation {res.max_deviation:.4f} vs 3 SE = {res.tolerance:.4f}")


if __name__ == "__main__":
    main()
