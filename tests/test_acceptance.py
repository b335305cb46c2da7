"""End-to-end acceptance checks.

Each test measures one headline property of the library, prints a single
`CRITERION k PASS/FAIL` line with the observed numbers and elapsed time, and
then asserts.  A full run therefore doubles as a sign-off sheet:

    pytest tests/test_acceptance.py -v
"""

import dataclasses
import math
import time

import numpy as np

from dfoline import (
    EstimatorConfig,
    LineSearchConfig,
    LineSearchConstants,
    NoiseModel,
    Oracle,
    RngStream,
    corpus,
    eta,
    gaussian_directions,
    get_function,
    gsg,
    gsg_covariance_top,
    gsg_misses,
    gsg_sample_size,
    gsg_variance_bound,
    interpolation_error,
    interpolation_error_bound,
    interpolation_gradient,
    minimize,
    moment_identity_check,
    orthonormal_directions,
    quadratic,
    relative_error,
    rosenbrock,
    strongly_convex_certificate,
)
from dfoline.harness.cli import main


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(k: int, ok: bool, detail: str, elapsed: float, limit: float):
    ok = ok and elapsed < limit
    line = (f"CRITERION {k} {'PASS' if ok else 'FAIL'}: {detail} "
            f"[{elapsed:.1f}s, limit {limit:.0f}s]")
    print(line)
    assert ok, line


def linear_oracle(a: np.ndarray) -> Oracle:
    a = np.asarray(a, dtype=float)
    return Oracle(lambda X: np.asarray(X, dtype=float) @ a, a.size,
                  grad_phi=lambda x: a, vectorized=True, name="linear")


def test_criterion_01_interpolation_exactness():
    """Orthonormal interpolation reproduces linear functions to round-off."""
    with Timer() as t:
        worst = 0.0
        runs = 0
        for n in (2, 10, 100):
            for seed in range(100):
                gen = RngStream(seed, 3, (n,)).generator()
                a = gen.uniform(-3.0, 3.0, n)
                oracle = linear_oracle(a)
                dirs = orthonormal_directions(n, n, RngStream(seed, 1, (n,)))
                est = interpolation_gradient(oracle, np.zeros(n), 1.0e-3, dirs)
                worst = max(worst, relative_error(est.g, a))
                runs += 1
    report(1, worst <= 1.0e-12,
           f"worst theta {worst:.2e} over {runs} runs, dims (2, 10, 100)",
           t.elapsed, 5.0)


def test_criterion_02_error_bound_is_hard():
    """Measured interpolation error never exceeds the closed-form bound."""
    eps_f = 1.0e-5
    with Timer() as t:
        worst_ratio = 0.0
        trials = 0
        for fname in ("quad_n10", "sin_n10"):
            fn = get_function(fname)
            consts = dataclasses.replace(fn.constants, eps_f=eps_f)
            for trial in range(500):
                sigma = (1.0e-2, 1.0e-4)[trial % 2]
                oracle = fn.oracle(NoiseModel("uniform", eps_f, seed=trial * 7 + 1))
                x = RngStream(trial, 2, (fn.n,)).generator().uniform(-2.0, 2.0, fn.n)
                err = interpolation_error(oracle, x, sigma, orthonormal_directions(
                    fn.n, fn.n, RngStream(trial, 1, (fn.n,))))
                bound = interpolation_error_bound(sigma, fn.n, consts)
                worst_ratio = max(worst_ratio, err / bound)
                trials += 1
    report(2, worst_ratio <= 1.0 + 1.0e-9,
           f"worst error/bound ratio {worst_ratio:.4f} over {trials} trials",
           t.elapsed, 30.0)


def test_criterion_03_corpus_accuracy_gap():
    """At sigma = 1e-5 and zero noise, interpolation beats smoothing by
    more than 1.5 decades of mean log10 relative error on the corpus."""
    sigma = 1.0e-5
    with Timer() as t:
        logs = {"liod": [], "gsg": []}
        for fname, fn in corpus().items():
            for trial in range(25):
                seed = RngStream(trial, 4, (fn.n, len(fname)))
                x = seed.generator().uniform(-2.0, 2.0, fn.n)
                grad = fn.gradient(x)
                oracle = fn.oracle()
                dirs_o = orthonormal_directions(fn.n, fn.n, RngStream(trial, 1, (fn.n, 0)))
                dirs_g = gaussian_directions(fn.n, fn.n, RngStream(trial, 1, (fn.n, 1)))
                logs["liod"].append(math.log10(
                    relative_error(interpolation_gradient(oracle, x, sigma, dirs_o).g, grad)))
                logs["gsg"].append(math.log10(
                    relative_error(gsg(oracle, x, sigma, dirs_g).g, grad)))
        mean_liod = float(np.mean(logs["liod"]))
        mean_gsg = float(np.mean(logs["gsg"]))
        gap = mean_gsg - mean_liod
    report(3, mean_liod <= -2.0 and mean_gsg >= -1.0 and gap >= 1.5,
           f"mean log10 theta: liod {mean_liod:.3f}, gsg {mean_gsg:.3f}, gap {gap:.2f}",
           t.elapsed, 60.0)


def test_criterion_04_direction_count_scaling():
    """Doubling N cuts the median gsg error by about sqrt(2)."""
    n, trials = 20, 200
    a = RngStream(9, 3, (n,)).generator().uniform(-2.0, 2.0, n)
    oracle = linear_oracle(a)
    with Timer() as t:
        medians = {}
        for N in (n, 2 * n):
            errs = [
                relative_error(
                    gsg(oracle, np.zeros(n), 1.0e-3,
                        gaussian_directions(n, N, RngStream(trial, 1, (N,)))).g,
                    a,
                )
                for trial in range(trials)
            ]
            medians[N] = float(np.median(errs))
        ratio = medians[n] / medians[2 * n]
    report(4, 1.2 <= ratio <= 1.7,
           f"median theta N=n {medians[n]:.4f} vs N=2n {medians[2*n]:.4f}, "
           f"ratio {ratio:.3f} (sqrt(2) = 1.414)",
           t.elapsed, 30.0)


def test_criterion_05_variance_domination():
    """The covariance bound kappa caps the sample covariance spectrum of gsg."""
    reps = 100_000
    a_norm = 2.0
    with Timer() as t:
        worst = 0.0
        details = []
        for n in (2, 4):
            a = np.full(n, a_norm / math.sqrt(n))  # value Lipschitz constant is ||a||
            for N in (1, 4):
                top = gsg_covariance_top(a, N, RngStream(41, 1, (n, N)), reps)
                kappa = gsg_variance_bound(a_norm, a_norm, n, N)
                worst = max(worst, top / kappa)
                details.append(f"n={n},N={N}: {top / kappa:.3f}")
    report(5, worst <= 1.0,
           f"max eig / kappa over {reps} reps: " + "; ".join(details),
           t.elapsed, 60.0)


def test_criterion_06_sample_size_guarantee():
    """The Chebyshev sample size keeps the miss frequency under delta."""
    n, delta, theta = 2, 0.1, 0.25
    a = np.array([1.0, 0.0])  # ||grad|| = 1, value Lipschitz constant 1
    with Timer() as t:
        N = gsg_sample_size(1.0, 1.0, n, delta, theta * 1.0)
        trials = 1000
        misses = gsg_misses(a, N, theta, RngStream(0, 1, (N,)), trials)
        freq = misses / trials
    report(6, N == 6400 and freq <= delta,
           f"N {N}, miss frequency {freq:.4f} vs delta {delta}",
           t.elapsed, 60.0)


def test_criterion_07_linear_rate_certificate():
    """Strongly convex runs track rho^k gap(0) + 4 eps_f/(1 - rho)."""
    fn = quadratic(10, 1.0, 10.0)
    ls_consts = LineSearchConstants(c1=0.2, tau=0.3, theta=0.25)
    with Timer() as t:
        worst = -math.inf
        details = []
        for eps_f in (0.0, 1.0e-4):
            consts = dataclasses.replace(fn.constants, eps_f=eps_f)
            noise = NoiseModel("uniform", eps_f, seed=17) if eps_f else None
            trace = minimize(
                fn.oracle(noise),
                np.ones(10),
                EstimatorConfig(kind="liod", adaptive=True, theta=0.25,
                                constants=consts),
                LineSearchConfig(c1=0.2, tau=0.3, eps_f=eps_f),
                budget=20_000,
                rng=RngStream(23),
            )
            rho, _ = strongly_convex_certificate(consts, ls_consts, 1, 1.0)
            floor = 4.0 * eps_f / (1.0 - rho)
            gap0 = trace.phi[0]
            phi = trace.phi.tolist()
            excess = max(
                phi[k] - (rho**k * gap0 + floor) for k in range(len(phi))
            )
            worst = max(worst, excess)
            details.append(
                f"eps_f={eps_f:g}: {len(phi)} iterates, max excess {excess:.2e}, "
                f"status {trace.status}"
            )
    report(7, worst <= 1.0e-9,
           f"rho {rho:.4f}; " + "; ".join(details),
           t.elapsed, 10.0)


def test_criterion_08_nonconvex_average_certificate():
    """Average squared gradient stays under (phi0 - phi_hat)/(eta T) + 4 eps_f/eta."""
    fn = rosenbrock(4)
    x0 = np.array([-1.2, 1.0, -1.2, 1.0])
    rate = eta(LineSearchConstants(c1=0.2, tau=0.3, theta=0.25), fn.constants.L)
    with Timer() as t:
        ok = True
        details = []
        for eps_f in (0.0, 1.0e-8):
            noise = NoiseModel("uniform", eps_f, seed=29) if eps_f else None
            trace = minimize(
                fn.oracle(noise), x0,
                EstimatorConfig(kind="liod", sigma=1.0e-6),
                LineSearchConfig(c1=0.2, tau=0.3, eps_f=eps_f),
                budget=1500,
                rng=RngStream(31),
            )
            gnt = trace.grad_norm_true
            phi0 = trace.phi[0]
            for T in (10, 100):
                if len(gnt) <= T:
                    ok = False
                    details.append(f"eps_f={eps_f:g}: only {len(gnt)} iterates")
                    continue
                avg = float(np.mean(gnt[:T] ** 2))
                bound = phi0 / (rate * T) + 4.0 * eps_f / rate
                ok = ok and avg <= bound
                details.append(f"eps_f={eps_f:g},T={T}: avg {avg:.3e} vs bound {bound:.3e}")
    report(8, ok, f"eta {rate:.3e}; " + "; ".join(details), t.elapsed, 10.0)


def test_criterion_09_moment_identities():
    """All seven Gaussian moment identities hold at 3 standard errors."""
    samples = 1_000_000
    with Timer() as t:
        worst = 0.0
        checks = 0
        for n in (1, 3, 5):
            a = RngStream(2024, 3, (n,)).generator().standard_normal(n)
            for identity_id in range(1, 8):
                res = moment_identity_check(
                    identity_id, n, a=a, samples=samples,
                    rng=RngStream(2024, 1, (n, identity_id)),
                )
                worst = max(worst, res.max_deviation / res.se_max)
                checks += 1
    report(9, worst <= 3.0,
           f"{checks} checks at {samples} samples, worst deviation {worst:.2f} SE",
           t.elapsed, 60.0)


def test_criterion_10_origin_gradient_anchor():
    """The n=100, M=1 sin instance has gradient norm sqrt(50) at the origin."""
    with Timer() as t:
        fn = get_function("sin_n100")
        got = float(np.linalg.norm(fn.gradient(np.zeros(100))))
        want = math.sqrt(50.0)
    report(10, abs(got - want) <= 1.0e-9,
           f"||grad(0)|| = {got!r} vs sqrt(50) = {want!r}",
           t.elapsed, 1.0)


def test_criterion_11_byte_determinism(tmp_path, capsys):
    """Identical config and seed give byte-identical output files."""
    import json

    cfg = {
        "experiment": "grad_accuracy",
        "experiment_id": "determinism",
        "functions": ["quad_n5", "sin_n10"],
        "estimators": ["gsg", "liod"],
        "sigmas": [1.0e-2, 1.0e-5],
        "trials": 50,
        "noise": {"kind": "uniform", "bound": 1.0e-6},
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with Timer() as t:
        codes = [
            main(["grad-accuracy", "--config", str(cfg_path), "--out",
                  str(tmp_path / out)] + extra)
            for out, extra in (("a", []), ("b", []), ("c", ["--jobs", "2"]))
        ]
        capsys.readouterr()
        blobs = [
            ((tmp_path / out / "records.csv").read_bytes(),
             (tmp_path / out / "summary.csv").read_bytes())
            for out in ("a", "b", "c")
        ]
        identical = blobs[0] == blobs[1] == blobs[2]
    with capsys.disabled():
        report(11, codes == [0, 0, 0] and identical,
               f"exit codes {codes}, rerun and --jobs 2 outputs byte-identical: "
               f"{identical}",
               t.elapsed, 10.0)
