"""Metric geometry of Jensen divergences: negative-type certification,
Cayley-Menger determinants, isometric embedding, kernel positivity, and
the constructions that witness where the square-root metric property and
Hilbert embeddability break down.

A symmetric zero-diagonal matrix D of divergence values is "of negative
type" when c^T D c <= 0 for every coefficient vector c summing to zero.
That holds iff the doubly centered matrix G = -1/2 J D J (with
J = I - ones/n) is PSD on the sum-zero subspace, iff sqrt(D) embeds
isometrically into a real Hilbert space, iff every point subset passes
the signed Cayley-Menger determinant test. All three certificates are
implemented and cross-checked.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .classical import Distribution, as_distribution, check_alpha
from .jensen import _gaps, _validated_stack
from .quantum import _density_stack, _is_state
from .tolerances import tolerance_scale

__all__ = [
    "DistanceMatrix",
    "as_distance_matrix",
    "NegativeTypeReport",
    "NegativeTypeError",
    "Embedding",
    "divergence_matrix",
    "sum_zero_basis",
    "negative_type_check",
    "cayley_menger_det",
    "menger_embeddability",
    "embed",
    "triangle_gap",
    "COUNTEREXAMPLE_TRIPLE",
    "counterexample_numerator",
    "counterexample_energy",
    "quadruple_distributions",
    "quadruple_cm_determinant",
    "falling_factorial",
    "cm_leading_sign",
    "cm_sign_prediction",
    "s_alpha_even_derivative",
    "ExpConvexityReport",
    "midpoint_kernel",
    "exp_convexity_check",
    "power_integral",
]

SYM_TOL = 1e-12
MENGER_MAX_POINTS = 12
# the x accepted by power_integral besides 0
POWER_X_MIN = 1e-300
POWER_X_MAX = 1e150


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative matrix of squared-metric candidates, zero diagonal.

    The centred eigenpairs that ``negative_type_check`` and ``embed`` rest
    on are computed once and kept with a copy of ``d``; they are used again
    only while ``d`` still holds those entries.
    """

    d: np.ndarray
    point_labels: tuple | None = None
    # (copy of d, W, w, V) of the last _centred call, see _centred_eigenpairs
    _centred_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return int(self.d.shape[0])


@dataclass(frozen=True)
class NegativeTypeReport:
    """Certificate (or refutation) that a divergence matrix is of negative type.

    ``min_eigenvalue`` is the smallest eigenvalue of -1/2 J D J restricted
    to the sum-zero subspace. On failure, ``witness_vector`` is a unit
    vector c with sum(c) = 0 and c^T D c > 0.
    """

    is_negative_type: bool
    min_eigenvalue: float
    tol: float
    witness_vector: np.ndarray | None = None


class NegativeTypeError(ValueError):
    """Raised when an embedding is requested for a matrix that is not of negative type."""

    def __init__(self, report: NegativeTypeReport):
        self.report = report
        super().__init__(
            f"matrix is not of negative type: centered min eigenvalue "
            f"{report.min_eigenvalue:.6e} below -{report.tol:.3e}"
        )


@dataclass(frozen=True)
class Embedding:
    """Euclidean coordinates realizing sqrt(D) distances."""

    coords: np.ndarray
    reconstruction_error: float


def as_distance_matrix(obj) -> DistanceMatrix:
    """Validate a symmetric, zero-diagonal, nonnegative matrix.

    Accepts a DistanceMatrix, a raw square array, or the wire mapping
    {"n": n, "d": [[...], ...]}. Asymmetry and negative entries within
    1e-12 are repaired; anything larger is an error.
    """
    labels = None
    if isinstance(obj, DistanceMatrix):
        return obj
    if isinstance(obj, dict):
        if "d" not in obj:
            raise ValueError('distance mapping must contain "d"')
        if "n" in obj:
            n = obj["n"]
            if not isinstance(n, numbers.Integral) or isinstance(n, bool):
                raise ValueError(f'distance "n" must be an integer, got {n!r}')
        try:
            if "n" in obj and obj["n"] != len(obj["d"]):
                raise ValueError('"n" does not match the matrix size')
            labels = tuple(obj["labels"]) if obj.get("labels") is not None else None
        except TypeError:
            raise ValueError('distance "d" and "labels" must be lists') from None
        obj = obj["d"]
    try:
        D = np.asarray(obj, dtype=float)
    except (TypeError, OverflowError):
        raise ValueError("distance matrix entries must be finite numbers") from None
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {D.shape}")
    if not np.all(np.isfinite(D)):
        raise ValueError("distance matrix entries must be finite")
    scale = max(float(np.max(np.abs(D))), 1.0)
    if float(np.max(np.abs(D - D.T))) > SYM_TOL * scale:
        raise ValueError("distance matrix is not symmetric")
    D = (D + D.T) / 2.0
    if float(np.max(np.abs(np.diag(D)))) > SYM_TOL * scale:
        raise ValueError("distance matrix diagonal is not zero")
    if float(D.min()) < -SYM_TOL * scale:
        raise ValueError(f"negative distance entry: {D.min()}")
    D = np.where(D < 0.0, 0.0, D)
    np.fill_diagonal(D, 0.0)
    return DistanceMatrix(d=D, point_labels=labels)


def divergence_matrix(points, alpha: float = 1.0) -> DistanceMatrix:
    """Pairwise order-alpha Jensen divergence matrix of distributions or states."""
    a = check_alpha(alpha)
    if len(points) < 2:
        raise ValueError("need at least two points")
    n = len(points)
    i, j = np.triu_indices(n, k=1)
    pairs = np.stack([i, j], axis=1)
    _, X, w, _ = _validated_stack(points)
    values = _gaps(X, pairs, np.full(pairs.shape, 0.5), a, w)[0]
    D = np.zeros((n, n))
    D[i, j] = D[j, i] = values
    return DistanceMatrix(d=D)


def sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal n x (n-1) basis of the subspace orthogonal to the all-ones vector."""
    # column k - 1 is (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)), with k ones
    k = np.arange(1, n)
    W = (np.arange(n)[:, None] < k).astype(float)
    W[k, k - 1] = -k
    return W / np.sqrt(k * (k + 1))


def default_negative_type_tol(D: np.ndarray) -> float:
    return 1e-9 * D.shape[0] * max(float(np.max(np.abs(D))), 0.0) * tolerance_scale()


def _sum_zero_spectrum(A: np.ndarray):
    """W = ``sum_zero_basis`` and the ascending eigenpairs (w, V) of W^T A W.

    W^T A W is A compressed to the sum-zero subspace: W^T J = W^T for
    J = I - ones/n, so J A J is never formed.
    """
    W = sum_zero_basis(A.shape[0])
    M = W.T @ A @ W
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    return W, w, V


def _centred_eigenpairs(dm: DistanceMatrix):
    """(W, w, V) of the centred Gram matrix G = -1/2 J D J, computed once per entries of dm.d.

    The pairs are kept on dm with a copy of its entries, and reused only
    while dm.d still equals that copy, since dm.d may be written in place.
    Two threads may both compute and store them; either result is the same.
    """
    memo = dm._centred_memo
    if memo is not None and np.array_equal(memo[0], dm.d):
        return memo[1:]
    # scaling by -1/2 is exact (barring subnormals): this is -1/2 W^T D W bit for bit
    W, w, V = _sum_zero_spectrum(-0.5 * dm.d)
    object.__setattr__(dm, "_centred_memo", (dm.d.copy(), W, w, V))
    return W, w, V


def _centred(dmat, tol: float | None):
    """The negative-type report and the centred eigenpairs it rests on.

    Returns (dm, report, W, w, V): W is ``sum_zero_basis``, and (w, V)
    the ascending eigenpairs of M = -1/2 W^T D W, the centred Gram matrix
    G = -1/2 J D J in that basis.
    """
    dm = as_distance_matrix(dmat)
    if tol is None:
        tol = default_negative_type_tol(dm.d)
    W, w, V = _centred_eigenpairs(dm)
    min_eig = float(w[0]) if len(w) else 0.0  # one point spans no sum-zero direction
    witness = None
    if min_eig < -tol:
        c = W @ V[:, 0]
        witness = c / np.linalg.norm(c)
    report = NegativeTypeReport(
        is_negative_type=witness is None, min_eigenvalue=min_eig, tol=tol, witness_vector=witness
    )
    return dm, report, W, w, V


def negative_type_check(dmat, tol: float | None = None) -> NegativeTypeReport:
    """Certify that c^T D c <= 0 for every sum-zero c, spectrally.

    The quadratic form restricted to the sum-zero subspace equals
    -2 c^T G c for G = -1/2 J D J, so negative type is equivalent to G
    being PSD there. The all-ones direction is deflated exactly with an
    orthonormal basis, and on failure the offending eigenvector is
    returned as an explicit violating coefficient vector.
    """
    return _centred(dmat, tol)[1]


def _bordered(d: np.ndarray) -> np.ndarray:
    """The bordered matrices [[D, 1], [1^T, 0]] of a stack of k x k matrices, (..., k+1, k+1)."""
    M = np.ones(d.shape[:-2] + (d.shape[-1] + 1,) * 2)
    M[..., :-1, :-1], M[..., -1, -1] = d, 0.0
    return M


def cayley_menger_det(dmat) -> float:
    """Determinant of the bordered matrix [[D, 1], [1^T, 0]].

    For points embeddable in Euclidean space, the sign pattern
    (-1)^n det >= 0 holds for the matrix on any n points, and the
    magnitude encodes the squared hypervolume of their simplex.
    """
    return float(np.linalg.det(_bordered(as_distance_matrix(dmat).d)))


def menger_embeddability(dmat, tol: float | None = None) -> bool:
    """Subset-wise Cayley-Menger test for isometric embeddability of sqrt(D).

    Checks (-1)^k det CM(Y) >= -tol for every subset Y of size k >= 2, in
    one stacked determinant per size k, over submatrices gathered from one
    bordered matrix by index tables built once per (n, k). The 2^n subsets
    cap the matrix at 12 points. Agrees with ``negative_type_check`` on
    inputs whose margins clear both functions' tolerances. Each compares
    against its own scaled 1e-9 tolerance, neither of which is an error
    bound, so near the edge the two can disagree in either direction.
    """
    dm = as_distance_matrix(dmat)
    n = dm.n
    if n > MENGER_MAX_POINTS:
        raise ValueError(f"subset enumeration only supported for n <= {MENGER_MAX_POINTS}, got {n}")
    dmax = max(float(np.max(dm.d)), 1e-30)
    scale = tolerance_scale()
    bordered = _bordered(dm.d).ravel()
    for k in range(2, n + 1):
        # determinants of k-point subsets scale like dmax^(k-1)
        sub_tol = 1e-9 * n * dmax ** (k - 1) * scale if tol is None else tol
        dets = np.linalg.det(bordered[_bordered_subsets(n, k)])
        if np.any((-1.0) ** k * dets < -sub_tol):
            return False
    return True


@functools.cache
def _bordered_subsets(n: int, k: int) -> np.ndarray:
    """Flat indices into the (n+1) x (n+1) bordered matrix of its k-point bordered submatrices.

    Row r of the (C(n, k), k+1, k+1) result picks out [[D_YY, 1], [1^T, 0]]
    for the r-th k-subset Y of range(n), the border index n appended to Y.
    Read-only; every (n, k) with n <= MENGER_MAX_POINTS takes about 3 MB.
    """
    idx = np.array([(*c, n) for c in itertools.combinations(range(n), k)])
    flat = idx[:, :, None] * (n + 1) + idx[:, None, :]
    flat.flags.writeable = False
    return flat


def embed(dmat, tol: float | None = None) -> Embedding:
    """Isometric embedding of sqrt(D) into Euclidean space by centered-Gram factorization.

    Reuses the centred eigenpairs (w, V) of ``negative_type_check``, keeps
    those above float noise, and returns coordinates X = W V sqrt(w) whose
    pairwise squared distances reproduce D. Raises NegativeTypeError (with
    the violating coefficient vector attached) when no embedding exists.
    """
    dm, report, W, w, V = _centred(dmat, tol)
    if not report.is_negative_type:
        raise NegativeTypeError(report)
    # G = (W V) diag(w) (W V)^T, and W V has orthonormal columns
    keep = w > 1e-10 * max(float(np.max(np.abs(w), initial=0.0)), 1.0)
    if not np.any(keep):
        coords = np.zeros((dm.n, 1))
    else:
        coords = (W @ V[:, keep]) * np.sqrt(w[keep])
    sq = np.sum(coords**2, axis=1)
    recon = sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T)
    err = float(np.max(np.abs(recon - dm.d)))
    return Embedding(coords=coords, reconstruction_error=err)


def triangle_gap(dmat, i: int, j: int, k: int) -> float:
    """sqrt(D_ij) + sqrt(D_jk) - sqrt(D_ik); negative means sqrt(D) violates the triangle inequality on (i, j, k)."""
    dm = as_distance_matrix(dmat)
    n = dm.n
    if len({i, j, k}) != 3 or not all(0 <= t < n for t in (i, j, k)):
        raise ValueError(f"need three distinct indices in [0, {n}), got {(i, j, k)}")
    return float(math.sqrt(dm.d[i, j]) + math.sqrt(dm.d[j, k]) - math.sqrt(dm.d[i, k]))


# ---------------------------------------------------------------------------
# the two-point triple (0,1), (1/2,1/2), (1,0) whose root-divergence triangle
# inequality fails exactly for orders in (2, 3)
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_TRIPLE = (
    (0.0, 1.0),
    (0.5, 0.5),
    (1.0, 0.0),
)


def counterexample_numerator(alpha: float) -> float:
    """4 (1/4)^a + 4 (3/4)^a - 6 (1/2)^a - 1.

    This is (a - 1) times the triangle defect of the canonical triple,
    and its only positive roots are a = 1, 2, 3. Divided by (a - 1) the
    defect is positive exactly on (2, 3), certifying the triangle
    violation there.
    """
    a = check_alpha(alpha)
    return float(4.0 * 0.25**a + 4.0 * 0.75**a - 6.0 * 0.5**a - 1.0)


def counterexample_energy(alpha: float) -> float:
    """Triangle defect JD_a(P, R) - 2 JD_a(P, Q) - 2 JD_a(Q, R) on the canonical triple.

    P = (0,1), Q = (1/2,1/2), R = (1,0). A positive value means
    sqrt(JD_a) fails the triangle inequality on the triple. It equals
    ``counterexample_numerator(a) / (a - 1)``, evaluated without
    cancellation near a = 1, where it takes its limit 3 ln 3 - 5 ln 2
    (about -0.16990).
    """
    a = check_alpha(alpha)
    b = a - 1.0
    # counterexample_numerator(a) / b with its constant terms cancelled exactly:
    # each term expm1(b x) / b keeps full precision near a = 1 and tends to x
    term = (lambda x: math.expm1(b * x) / b) if b else (lambda x: x)
    return term(math.log(0.25)) + 3.0 * term(math.log(0.75)) - 3.0 * term(math.log(0.5))


# ---------------------------------------------------------------------------
# the near-uniform quadruple whose Cayley-Menger determinant changes sign at
# order 7/2, ruling out Hilbert embeddability beyond that point
# ---------------------------------------------------------------------------


def quadruple_distributions(eps: float) -> list[Distribution]:
    """Four two-point distributions (1/2 + d, 1/2 - d) for d in {-3e, -e, e, 3e}."""
    eps = float(eps)
    if not 0.0 < eps < 1.0 / 6.0:
        raise ValueError(f"need 0 < eps < 1/6, got {eps}")
    return [
        as_distribution([0.5 + d, 0.5 - d]) for d in (-3.0 * eps, -eps, eps, 3.0 * eps)
    ]


def quadruple_cm_determinant(alpha: float, eps: float) -> float:
    """Cayley-Menger determinant of the four-point order-alpha divergence matrix.

    The entries are first rescaled by eps^-2 (the natural size of the
    divergences), which multiplies the determinant by a positive factor
    and avoids underflow; the raw determinant is restored afterwards.
    Embeddability of the quadruple requires det >= 0.

    eps is accepted in [1e-6, 1/6). Below that the entries, about eps^2,
    are lost in the 1e-16 rounding of the entropies they are differences
    of: their relative error is 3e-5 at eps = 1e-6, 1e-2 at 1e-7 and 1
    at 1e-8. The determinant, of size eps^12, cancels further: its sign
    followed ``cm_sign_prediction`` at orders 0.5 to 5 for eps from 2e-3
    to 0.1, and at 1e-3 it no longer did.
    """
    a = check_alpha(alpha)
    eps = float(eps)
    if not 1e-6 <= eps < 1.0 / 6.0:
        raise ValueError(f"need 1e-6 <= eps < 1/6, got {eps}")
    D = divergence_matrix(quadruple_distributions(eps), a).d
    c = 1.0 / eps**2
    # det CM(c D) = c^(n-1) det CM(D) with n = 4
    det_scaled = cayley_menger_det(DistanceMatrix(d=c * D))
    return det_scaled * eps**6


def falling_factorial(x: float, k: int) -> float:
    """x (x-1) ... (x-k+1)."""
    out = 1.0
    for j in range(k):
        out *= x - j
    return out


def cm_leading_sign(alpha: float) -> float:
    """The polynomial 4 a(a-1) (a-2)(a-3)(a-7/2) controlling the small-eps determinant.

    Its sign pattern, combined with the derivative prefactors (see
    ``cm_sign_prediction``), limits embeddable orders to [0, 2] and
    [3, 7/2]: the quadruple test is blind on (2, 3), where the triple
    counterexample takes over, and detects the failure beyond 7/2.
    """
    a = check_alpha(alpha)
    return float(4.0 * falling_factorial(a, 2) * (a - 2.0) * (a - 3.0) * (a - 3.5))


def cm_sign_prediction(alpha: float) -> int:
    """Predicted sign of the quadruple determinant for small eps.

    The leading eps^12 coefficient of the determinant works out to
    -2^(17-3a) a^3 (a-2)^2 (a-3)^2 (a-7/2). Multiplying
    ``cm_leading_sign`` by a(a-1)(a-2)(a-3) squares the falling-factorial
    content into 4 (a(a-1)(a-2)(a-3))^2 (a-7/2), so the negated product
    has sign -sign(a - 7/2), matching that coefficient. Returns +1, -1,
    or 0 at the degenerate roots.
    """
    a = check_alpha(alpha)
    value = -cm_leading_sign(a) * falling_factorial(a, 4)
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


def s_alpha_even_derivative(n: int, alpha: float, x: float = 0.5) -> float:
    """(2n)-th derivative of p -> S_alpha((p, 1-p)) at x.

    Closed form -(a^(2n falling) / (a - 1)) (x^(a-2n) + (1-x)^(a-2n)),
    with the order-1 limit -(2n-2)! (x^(1-2n) + (1-x)^(1-2n)). At
    x = 1/2 the bracket collapses to 2^(2n+1-a) (times 1/(a-1)).
    """
    if n < 1:
        raise ValueError(f"need derivative order n >= 1, got {n}")
    a = check_alpha(alpha)
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"need 0 < x < 1, got {x}")
    k = 2 * n
    bracket = x ** (a - k) + (1.0 - x) ** (a - k)
    # a^(k falling) / (a - 1) with the factor (a - 1) cancelled: exact at a = 1 too
    return -a * falling_factorial(a - 2.0, k - 2) * bracket


# ---------------------------------------------------------------------------
# kernel positivity (exponential convexity) and the power-function integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpConvexityReport:
    """PSD certificate for a midpoint kernel K_ij = phi((x_i + x_j) / 2).

    ``min_eigenvalue`` is over the full space (the positive-definiteness
    criterion); ``centered_min_eigenvalue`` restricts to sum-zero
    coefficient vectors, which is the part affine components of phi
    cannot influence: it is the smallest eigenvalue of W^T K W for
    W = ``sum_zero_basis``.
    """

    is_positive_definite: bool
    min_eigenvalue: float
    centered_min_eigenvalue: float
    tol: float


def midpoint_kernel(phi, samples) -> np.ndarray:
    """K_ij = phi((x_i + x_j) / 2) for scalar samples or density matrices."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if _is_state(samples[0]):
        xs = _density_stack(samples)[0]
    else:
        xs = [float(s) for s in samples]
    m = len(xs)
    K = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            K[i, j] = K[j, i] = float(phi((xs[i] + xs[j]) / 2.0))
    return K


def exp_convexity_check(phi, samples, tol: float | None = None) -> ExpConvexityReport:
    """Test positive definiteness of the midpoint kernel of phi.

    ``is_positive_definite`` reflects the full-space eigenvalue test.
    The centered eigenvalue is also reported: genuinely exponentially
    convex functions (e.g. x -> e^{-tx}) pass in full space, while
    functions that are exponentially convex only up to affine terms pass
    the centered test alone.
    """
    K = midpoint_kernel(phi, samples)
    m = K.shape[0]
    if tol is None:
        tol = 1e-9 * m * max(float(np.max(np.abs(K))), 1.0) * tolerance_scale()
    w_full = float(np.linalg.eigvalsh(K)[0])
    w_centered = float(_sum_zero_spectrum(K)[1][0])
    return ExpConvexityReport(
        is_positive_definite=w_full >= -tol,
        min_eigenvalue=w_full,
        centered_min_eigenvalue=w_centered,
        tol=tol,
    )


def power_integral(x: float, alpha: float) -> float:
    """x^alpha via its completely monotone integral representation.

    For a in (0, 1):  x^a = (1/Gamma(-a)) int_0^inf (e^{-xt} - 1) / t^(a+1) dt,
    for a in (1, 2):  x^a = (1/Gamma(-a)) int_0^inf (e^{-xt} - 1 + xt) / t^(a+1) dt.

    The integral is split at two points t0 = e^s0 and t1 = e^s1 of the
    integer lattice in s = ln t, with x t0 <= 1/2 and x t1 >= 40:
    - on (0, t0] the integrand's series sum_{k >= k0} (-xt)^k / k! t^(-a-1)
      (k0 = 1 below order 1, 2 above) is integrated term by term;
    - on [t0, t1] a 20-node Gauss-Legendre rule on each unit panel in s
      integrates expm1(-xt) (+ xt) e^{-as};
    - on (t1, inf) the power-law part -t^(-a-1) (+ x t^(-a)) is integrated
      exactly; the e^{-xt} dropped there is below e^-40 of it.
    x enters only through the integrand. Measured against x**alpha: at
    most 3.1e-15 absolute error for x in [0, 2], and 2.2e-15 relative error
    for x in [1e-6, 1e3], at orders from 0.01 to 1.999999 (including
    0.999999 and 1.000001). x is accepted in [POWER_X_MIN, POWER_X_MAX]
    and at 0, so that no intermediate overflows; at x = POWER_X_MAX the
    value stays within 6e-14 of x**alpha up to the order 2 - 2.2e-16.
    Orders below about 5.6e-309, where Gamma(-alpha) overflows, are refused.
    """
    a = check_alpha(alpha)
    if not (0.0 < a < 1.0 or 1.0 < a < 2.0):
        raise ValueError(f"representation requires order in (0,1) or (1,2), got {a}")
    x = float(x)
    if x == 0.0:
        return 0.0
    if not POWER_X_MIN <= x <= POWER_X_MAX:
        raise ValueError(f"need x = 0 or {POWER_X_MIN:g} <= x <= {POWER_X_MAX:g}, got {x}")
    k0 = 1 if a < 1.0 else 2
    s0 = math.floor(-math.log(2.0 * x))
    s1 = math.ceil(math.log(40.0 / x))
    # (-x t0)^k / k! / (k - a) for k = 1 .. 18; the last is below 1e-20 of the first
    k = np.arange(1.0, 19.0)
    terms = np.cumprod(-x * math.exp(s0) / k) / (k - a)
    # each part is divided by Gamma(-a) before the sum: the head alone is
    # about x^a |Gamma(-a)|, which exceeds the largest double as a -> 2
    try:
        gamma = math.gamma(-a)
    except OverflowError:
        raise ValueError(f"order {a!r} is too small: Gamma(-order) overflows") from None
    head = math.exp(-a * s0) / gamma * float(terms[k0 - 1 :].sum())
    nodes, weights = _unit_panel()
    s = np.arange(s0, s1)[:, None] + nodes
    xt = x * np.exp(s)
    f = np.expm1(-xt) + xt if k0 == 2 else np.expm1(-xt)
    body = float(((f * np.exp(-a * s)) @ weights).sum()) / gamma
    tail = -math.exp(-a * s1) / a
    if k0 == 2:
        tail += x * math.exp((1.0 - a) * s1) / (a - 1.0)
    return head + body + tail / gamma


@functools.cache
def _unit_panel() -> tuple[np.ndarray, np.ndarray]:
    """20-node Gauss-Legendre nodes and weights on [0, 1]."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    return (nodes + 1.0) / 2.0, weights / 2.0
