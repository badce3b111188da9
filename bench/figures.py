"""Reference figures of single calls: ``PYTHONPATH=src python3 bench/figures.py``.

Times each call as the median of repeated runs after a warm-up call,
with one BLAS thread as in the workloads, and prints one line per
figure. The last block surveys the negative-type margin of seeded sets
of 20 Ginibre qutrits, by the program and by ``reference.py``.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import workloads as W  # noqa: E402
from jensengeo import bounds, geometry, jensen  # noqa: E402

SRC = str(Path(__file__).resolve().parent.parent / "src")


def median_s(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def spawn_s(args: list[str], repeats: int = 7) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    return median_s(lambda: subprocess.run([sys.executable, *args], env=env, check=True,
                                           capture_output=True), repeats)


def main() -> None:
    rng = np.random.default_rng(0)
    P100 = list(W.distributions(rng, 100, 10, zeros=False))
    S40 = list(W.ginibre(rng, 40, 4))
    P12 = W.distributions(rng, 12, 5, zeros=False)
    D12 = R.jd_matrix(P12, 1.0)
    p, q = P100[0], P100[1]
    r1, r2 = S40[0], S40[1]
    rows = [
        ("divergence_matrix, 100 distributions on 10 letters, order 1", "ms",
         1e3 * median_s(lambda: geometry.divergence_matrix(P100, 1.0), 5)),
        ("divergence_matrix, 100 distributions on 10 letters, order 1.5", "ms",
         1e3 * median_s(lambda: geometry.divergence_matrix(P100, 1.5), 5)),
        ("divergence_matrix, 40 Ginibre states with d = 4, order 1", "ms",
         1e3 * median_s(lambda: geometry.divergence_matrix(S40, 1.0), 5)),
        ("diagram(1.5, 3, 50)", "ms", 1e3 * median_s(lambda: bounds.diagram(1.5, 3, 50), 5)),
        ("menger_embeddability on 12 points", "ms",
         1e3 * median_s(lambda: geometry.menger_embeddability(D12), 5)),
        ("one jd_alpha call, 10 letters, order 1", "us", 1e6 * median_s(lambda: jensen.jd_alpha(p, q), 501)),
        ("one qjd_alpha call, d = 4, order 1", "us", 1e6 * median_s(lambda: jensen.qjd_alpha(r1, r2), 201)),
        ("bare interpreter start", "s", spawn_s(["-c", "pass"])),
        ("import jensengeo in a fresh interpreter", "s", spawn_s(["-c", "import jensengeo"])),
        ("one CLI call (jd), spawn to exit", "s",
         spawn_s(["-c", W.CONSOLE_SCRIPT, "jd", "--p", "[1,0]", "--q", "[0,1]"])),
    ]
    for label, unit, value in rows:
        print(f"{label}: {value:.3g} {unit}")
    print("centred min eigenvalue of 20 Ginibre qutrits (seed, order: program / reference):")
    for seed in range(10):
        states = W.ginibre(np.random.default_rng(seed), 20, 3)
        for alpha in W.ORDERS:
            report = geometry.negative_type_check(geometry.divergence_matrix(list(states), alpha))
            ref = R.centred_min_eigenvalue(R.qjd_matrix(states, alpha))
            print(f"  {seed}, {alpha}: {report.min_eigenvalue:.3e} / {ref:.3e}"
                  f"{'' if report.is_negative_type else '  not negative type'}")


if __name__ == "__main__":
    main()
