"""Tour of the oracle layer: bounded noise models and the five estimators.

Builds a 10-dimensional quadratic, attaches each noise kind at the oracle
boundary, and confirms the hard bound |f(x) - phi(x)| <= eps_f empirically.
Then estimates the gradient at a random point with every estimator kind of
``ESTIMATORS``, each on N = n directions drawn from one stream, and reports
the relative error theta = ||g - grad phi|| / ||grad phi||.

Run:  python3 demos/noisy_oracles.py
"""

import numpy as np

from dfoline import NoiseModel, RngStream, quadratic, relative_error
from dfoline.estimators import ESTIMATORS, estimate

EPS_F = 1.0e-4
SIGMA = 1.0e-2


def main():
    fn = quadratic(10, 1.0, 10.0)
    x = RngStream(0, 2).generator().uniform(-2.0, 2.0, fn.n)

    print(f"function {fn.name}, eps_f = {EPS_F:g}")
    print("\nnoise kinds (1000 probe points, worst |f - phi|):")
    probes = RngStream(0, 3).generator().uniform(-2.0, 2.0, (1000, fn.n))
    for kind in ("none", "uniform", "sinusoidal", "adversarial_sign"):
        oracle = fn.oracle(NoiseModel(kind, EPS_F if kind != "none" else 0.0))
        eps = np.abs(oracle.evaluate_batch(probes) - fn.value(probes))
        print(f"  {kind:<17s} max {eps.max():.3e}  (bound {oracle.noise.bound:g})")

    print(f"\nestimators at sigma = {SIGMA:g} under uniform noise:")
    grad = fn.gradient(x)
    stream = RngStream(0, 1)
    for kind, spec in ESTIMATORS.items():
        oracle = fn.oracle(NoiseModel("uniform", EPS_F))
        est = estimate(kind, oracle, x, SIGMA, fn.n, stream)
        theta = relative_error(est.g, grad)
        print(f"  {kind:<5s}{spec.sets.__name__:<20s}theta {theta:.3e}   "
              f"evals {oracle.eval_count}")

    print("\ninterpolation pays n+1 evaluations and tracks the gradient;")
    print("single-sigma smoothing at the same cost is Monte Carlo noisy.")


if __name__ == "__main__":
    main()
