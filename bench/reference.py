"""Reference values computed apart from jensengeo.

Everything here follows the definitions with numpy alone: a Jensen
divergence is the entropy of the even mixture minus the mean entropy of
the two members, quantum entropies are taken on spectra from
``numpy.linalg.eigvalsh``, and the bounds are the closed forms of the
paper (with ``B_n`` where ``L`` is false). The benchmark compares the
program's outputs against these; ``test_reference.py`` tests them.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def entropy(weights, alpha: float) -> np.ndarray:
    """Order-alpha entropy along the last axis; order 1 is Shannon's."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    if alpha == 1.0:
        return -np.sum(w * np.log(np.where(w > 0.0, w, 1.0)), axis=-1)
    return (1.0 - np.sum(w**alpha, axis=-1)) / (alpha - 1.0)


def jd(p, q, alpha: float) -> float:
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return float(entropy((p + q) / 2.0, alpha) - (entropy(p, alpha) + entropy(q, alpha)) / 2.0)


def jd_rows(P, Q, alpha: float) -> np.ndarray:
    """JD_alpha of the row pairs of two (m, n) arrays."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    return entropy((P + Q) / 2.0, alpha) - (entropy(P, alpha) + entropy(Q, alpha)) / 2.0


def jd_matrix(P, alpha: float) -> np.ndarray:
    """Pairwise JD_alpha of the rows of an (N, n) array."""
    P = np.asarray(P, dtype=float)
    H = entropy(P, alpha)
    D = entropy((P[:, None, :] + P[None, :, :]) / 2.0, alpha) - (H[:, None] + H[None, :]) / 2.0
    np.fill_diagonal(D, 0.0)
    return D


def qjd(rho1, rho2, alpha: float) -> float:
    r1, r2 = np.asarray(rho1), np.asarray(rho2)
    spec = np.linalg.eigvalsh(np.stack([(r1 + r2) / 2.0, r1, r2]))
    h = entropy(spec, alpha)
    return float(h[0] - (h[1] + h[2]) / 2.0)


def qjd_matrix(states, alpha: float) -> np.ndarray:
    """Pairwise QJD_alpha of an (N, d, d) stack of density matrices."""
    S = np.asarray(states)
    H = entropy(np.linalg.eigvalsh(S), alpha)
    mixed = np.linalg.eigvalsh((S[:, None] + S[None, :]) / 2.0)
    D = entropy(mixed, alpha) - (H[:, None] + H[None, :]) / 2.0
    np.fill_diagonal(D, 0.0)
    return D


def quantum_tolerance(d: int, alpha: float) -> float:
    """How far two correct evaluations of a QJD_alpha in dimension d may differ.

    Eigensolvers place a zero eigenvalue within about d * 2.2e-16 of 0.
    Below order 1 the entropy term x^alpha magnifies such an error e to
    e^alpha / (1 - alpha) (3e-8 at alpha = 1/2), so rank-deficient
    states, such as pure ones, agree only to that order.
    """
    if alpha >= 1.0:
        return 1e-10
    return 1e-10 + d * (d * 2.2e-16) ** alpha / (1.0 - alpha)


def total_variation(p, q) -> float:
    return float(np.sum(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))))


def trace_distance(rho1, rho2) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(np.asarray(rho1) - np.asarray(rho2)))))


def centred_min_eigenvalue(D) -> float:
    """Smallest eigenvalue of -D/2 on the sum-zero subspace.

    Non-negative (up to rounding) exactly when D is of negative type.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    basis = np.linalg.svd(np.eye(n) - 1.0 / n)[0][:, : n - 1]
    return float(np.linalg.eigvalsh(-0.5 * basis.T @ D @ basis)[0])


def squared_distances(coords) -> np.ndarray:
    X = np.asarray(coords, dtype=float)
    diff = X[:, None, :] - X[None, :, :]
    return np.sum(diff * diff, axis=-1)


def binary_entropy(x, alpha: float) -> float:
    return float(entropy([x, 1.0 - x], alpha))


def lower_L(v: float, alpha: float) -> float:
    """s_a(1/2) - s_a(1/2 + v/4): the two-letter lower edge."""
    return binary_entropy(0.5, alpha) - binary_entropy(0.5 + v / 4.0, alpha)


def lower_B(v: float, alpha: float, n: int) -> float:
    """(a v^2 / 32)(1/floor(n/2) + 1/ceil(n/2)), from JD_a >= (a/8)||P - Q||_2^2."""
    return alpha * v * v / 32.0 * (1.0 / (n // 2) + 1.0 / ((n + 1) // 2))


def proven_lower(v: float, alpha: float, n: int) -> float:
    """The lower bound the paper proves at distance v in n letters or dimensions."""
    if alpha == 1.0 or (n == 2 and alpha <= 2.0):
        return lower_L(v, alpha)
    return lower_B(v, alpha, n) if alpha <= 2.0 else 0.0


def upper_two(v: float, alpha: float) -> float:
    """s_a(v/4) - s_a(v/2)/2: the two-letter upper edge."""
    return binary_entropy(v / 4.0, alpha) - binary_entropy(v / 2.0, alpha) / 2.0


def upper_alpha_norm(p, q, alpha: float) -> float:
    """(1/2 - 2^-a)/(a - 1) ||P - Q||_a^a, with order-1 limit (ln 2 / 2) V."""
    diff = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    if alpha == 1.0:
        return LN2 / 2.0 * float(np.sum(diff))
    return (0.5 - 2.0**-alpha) / (alpha - 1.0) * float(np.sum(diff**alpha))


def upper_curve(v, alpha: float, n: int):
    """The upper edge of the joint range at total variation v (scalar or array)."""
    v = np.asarray(v, dtype=float)
    if n == 2:
        out = np.vectorize(lambda x: upper_two(x, alpha))(v)
    elif alpha == 1.0:
        out = LN2 / 2.0 * v
    else:
        out = ((v / 2.0) ** alpha - 2.0 * (v / 4.0) ** alpha) / (alpha - 1.0)
    return out if out.ndim else float(out)


def homotopy_pairs(ts, vs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (1 - t) lower-witness + t upper-witness, for every (t, v) with t outer."""
    t = np.repeat(np.asarray(ts, dtype=float), len(vs))[:, None]
    v = np.tile(np.asarray(vs, dtype=float), len(ts))
    lo_p, lo_q = np.zeros((len(v), n)), np.zeros((len(v), n))
    lo_p[:, 0], lo_p[:, 1] = 0.5 + v / 4.0, 0.5 - v / 4.0
    lo_q[:, 0], lo_q[:, 1] = 0.5 - v / 4.0, 0.5 + v / 4.0
    up_p, up_q = np.zeros((len(v), n)), np.zeros((len(v), n))
    if n == 2:
        up_p[:, 0], up_p[:, 1] = v / 2.0, 1.0 - v / 2.0
        up_q[:, 1] = 1.0
    else:
        up_p[:, 0], up_p[:, 1] = 1.0 - v / 2.0, v / 2.0
        up_q[:, 0], up_q[:, 2] = 1.0 - v / 2.0, v / 2.0
    return (1.0 - t) * lo_p + t * up_p, (1.0 - t) * lo_q + t * up_q


def counterexample_energy(alpha: float) -> float:
    """(4 4^-a + 4 (3/4)^a - 6 2^-a - 1)/(a - 1): the triangle defect of (0,1), (1/2,1/2), (1,0)."""
    a = alpha
    return (4.0 * 4.0**-a + 4.0 * 0.75**a - 6.0 * 2.0**-a - 1.0) / (a - 1.0)


def is_distribution(row, tol: float = 1e-12) -> bool:
    p = np.asarray(row, dtype=float)
    return p.ndim == 1 and bool(np.all(p >= -tol)) and abs(float(p.sum()) - 1.0) <= 1e-9


def is_state(matrix, tol: float = 1e-9) -> bool:
    A = np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    hermitian = float(np.max(np.abs(A - A.conj().T))) <= tol
    unit_trace = abs(complex(np.trace(A)) - 1.0) <= tol
    return hermitian and unit_trace and float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0]) >= -tol


def close(actual, expected, tol: float) -> bool:
    """Every entry of ``actual`` within ``tol`` of ``expected`` (shapes must agree)."""
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return a.shape == e.shape and bool(np.all(np.abs(a - e) <= tol))
