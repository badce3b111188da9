"""Density matrices, their spectra, and quantum information quantities.

Matrix functions (log, power, exp) are evaluated on spectra: the
eigenvalues that validated a state, or a Hermitian eigendecomposition,
except for mixtures with at most two nonzero eigenvalues (of qubits, or
of two pure states) in the two-level helpers here and in the Jensen
kernel's calls made only of such mixtures. There ``_two_level`` gives
the spectrum in closed form from one gap, with no eigensolver. Trace
distance is the unhalved trace norm ||rho - sigma||_1 = sum |eigenvalues
of the difference|, range [0, 2], mirroring the unhalved total variation
on the classical side.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .classical import _distribution_array, _entropies, _stack_points, check_alpha

__all__ = [
    "DensityMatrix",
    "Spectrum",
    "validate_density",
    "as_density",
    "spectrum",
    "von_neumann_entropy",
    "alpha_entropy_q",
    "relative_entropy",
    "trace_distance",
    "hs_distance_sq",
    "qubit_mixture_eigenvalues",
    "pure_overlap_eigenvalues",
    "trace_exp_qubit",
    "is_pure",
    "ginibre_state",
    "random_pure_state",
    "random_unitary",
    "density_to_json",
    "density_from_json",
]

HERM_TOL = 1e-10      # max |A - A^dagger| accepted before symmetrization
TRACE_TOL = 1e-9      # |tr - 1| above this is a hard error
EIG_FLOOR = -1e-8     # eigenvalues below this mean a genuinely non-PSD input
PURITY_TOL = 1e-9     # rank-1 test: largest eigenvalue >= 1 - PURITY_TOL
SUPPORT_TOL = 1e-10   # a passed-in sigma's eigenvalues <= this are its null space in S(rho||sigma)
# rank rule: a d x d state whose d - 1 smallest eigenvalues all lie within PURE_EPS * d of 0,
# the resolution of eigvalsh on a unit-trace matrix, has the spectrum (0, ..., 0, 1)
PURE_EPS = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, PSD (up to tolerance) complex matrix.

    ``eigenvalues`` (ascending, read-only) are the ones its validation
    found, which the entropies, ``spectrum``, ``is_pure`` and the kernels
    read; one built by hand (not validated) takes them from one
    ``eigvalsh`` and the rank rule of ``_rank_rule``. Writing into ``matrix``
    bypasses validation and leaves them stale, as does
    ``dataclasses.replace`` with a new matrix.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        w = self.eigenvalues
        if w is None:
            w = _rank_rule(np.linalg.eigvalsh(self.matrix))
        w = np.asarray(w).view()  # read-only without freezing the caller's array
        w.flags.writeable = False
        object.__setattr__(self, "eigenvalues", w)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order, with optional orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def validate_density(raw) -> DensityMatrix:
    """Validate a raw complex matrix as a quantum state.

    Symmetrizes (A + A^dagger)/2 when the Hermitian asymmetry is within
    1e-10, normalizes a trace within 1e-9 of 1, and rejects matrices with
    an eigenvalue below -1e-8; the state keeps the eigenvalues, and the
    negative ones contribute nothing to entropic quantities. Accepts a
    wire-format mapping too: the one-point case of ``_density_stack``.
    """
    X, w = _density_stack((raw,))
    return DensityMatrix(matrix=X[0], eigenvalues=w[0])


def _density_point(raw) -> np.ndarray:
    """A raw matrix or wire-format mapping as a square complex array; the values are left to
    ``_validate_densities``."""
    if isinstance(raw, dict):
        raw = _json_matrix(raw)
    try:
        A = np.asarray(raw, dtype=complex)
    except TypeError:
        raise ValueError("density matrix entries must be numbers") from None
    except OverflowError:
        raise ValueError("density matrix entries must be finite") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError("density matrix must be at least 1x1")
    return A


def _rank_rule(w: np.ndarray) -> np.ndarray:
    """Set each ascending spectrum in w (..., d) whose d - 1 smallest eigenvalues all lie within
    PURE_EPS * d of 0 to (0, ..., 0, 1), in place, and return w.

    Such a spectrum is a pure state's at the resolution of ``eigvalsh``;
    the kernels then read it as rank 1 and need no eigensolver for its
    mixtures with another pure state.
    """
    if w.shape[-1] > 1:
        tol = PURE_EPS * w.shape[-1]
        pure = w[..., -2] <= tol
        if pure.any():
            pure &= w[..., 0] >= -tol
            w[pure] = 0.0
            w[pure, -1] = 1.0
    return w


def _is_rank_one(w: np.ndarray) -> np.ndarray:
    """Whether each ascending spectrum in w (..., d) is the (0, ..., 0, 1) of ``_rank_rule``."""
    return ~w[..., :-1].any(axis=-1)


def _validate_densities(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state checks of ``validate_density`` on every matrix of an (N, d, d) complex array.

    Returns the matrices symmetrized, with each trace within TRACE_TOL of
    1 (but not 1) divided out, and their (N, d) ascending eigenvalues
    under the rank rule of ``_rank_rule``: the one stacked ``eigvalsh``
    that finds the smallest eigenvalues serves the divergence kernels
    too. Where several matrices fail, the first check that any matrix
    fails is reported, for the first matrix that fails it. Halves are
    added, so symmetrizing cannot overflow, and an asymmetry or trace
    that overflows (inf, or NaN) fails its check.
    """
    if not np.isfinite(A).all():
        raise ValueError("density matrix entries must be finite")
    AH = np.swapaxes(A.conj(), -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        asym = np.abs(A - AH)
        if asym.max() > HERM_TOL:
            worst = asym.max(axis=(-2, -1))
            raise ValueError(
                f"matrix is not Hermitian: max asymmetry {worst[np.argmax(worst > HERM_TOL)]:.3e}"
            )
        A = A / 2.0 + AH / 2.0
        tr = A.diagonal(0, -2, -1).sum(axis=-1).real
    dev = np.abs(tr - 1.0)
    if not dev.max() <= TRACE_TOL:
        raise ValueError(f"trace is {float(tr[np.argmax(~(dev <= TRACE_TOL))])}, not 1")
    np.divide(A, tr[:, None, None], out=A, where=(dev != 0.0)[:, None, None])
    w = np.linalg.eigvalsh(A)
    w_min = w[:, 0]
    if w_min.min() < EIG_FLOOR:
        raise ValueError(
            "matrix is not positive semidefinite: "
            f"min eigenvalue {w_min[np.argmax(w_min < EIG_FLOOR)]:.3e}"
        )
    return A, _rank_rule(w)


def _density_stack(points) -> tuple[np.ndarray, np.ndarray]:
    """Validate points as states of one dimension, in one stacked call.

    DensityMatrix objects pass through; every other point is parsed (a
    wire-format mapping to its matrix) and shape-checked, and then the
    value checks of ``_validate_densities`` run once, over all of them.
    Returns the (N, d, d) stack and the (N, d) ascending eigenvalues, of
    validation or stored in the objects.
    """
    arrays = [p.matrix if isinstance(p, DensityMatrix) else _density_point(p) for p in points]
    raw = [i for i, p in enumerate(points) if not isinstance(p, DensityMatrix)]
    X = _stack_points(arrays, "dimension")
    if len(raw) == len(X):
        return _validate_densities(X)
    w = np.empty(X.shape[:2])
    for i, p in enumerate(points):
        if isinstance(p, DensityMatrix):
            w[i] = p.eigenvalues
    if raw:
        X[raw], w[raw] = _validate_densities(X[raw])
    return X, w


def as_density(obj) -> DensityMatrix:
    """``validate_density`` of a raw matrix or {"dim", "entries"} mapping; a DensityMatrix as is."""
    return obj if isinstance(obj, DensityMatrix) else validate_density(obj)


def _is_state(obj) -> bool:
    """Whether obj is or describes a density matrix, rather than a distribution or a scalar."""
    if isinstance(obj, DensityMatrix):
        return True
    if isinstance(obj, dict):
        return "entries" in obj
    return np.asarray(obj).ndim == 2


def _point_size(point) -> int:
    """Entries of one raw point, parsed but with no value checked: n for a distribution, d^2 for
    a d x d state."""
    return _density_point(point).size if _is_state(point) else _distribution_array(point)[0].size


def density_to_json(rho) -> dict:
    """Wire format: {"dim": d, "entries": [[[re, im], ...], ...]}."""
    A = as_density(rho).matrix
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in A]
    return {"dim": int(A.shape[0]), "entries": entries}


def density_from_json(obj: dict) -> DensityMatrix:
    return validate_density(obj)


def _json_matrix(obj: dict) -> np.ndarray:
    """The complex matrix of a wire-format mapping, checked against its "dim"."""
    if "entries" not in obj:
        raise ValueError('density mapping must contain "entries"')
    try:
        pairs = np.asarray(obj["entries"], dtype=float)
        if pairs.ndim != 3 or pairs.shape[2] != 2:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError('density "entries" must be rows of [re, im] pairs') from None
    A = pairs[..., 0] + 1j * pairs[..., 1]
    if "dim" in obj:
        dim = obj["dim"]
        if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
            raise ValueError(f'density "dim" must be an integer, got {dim!r}')
        if dim != A.shape[0]:
            raise ValueError(f'"dim" is {dim} but entries are {A.shape[0]}x{A.shape[1]}')
    return A


def spectrum(rho, with_vectors: bool = False) -> Spectrum:
    """The stored eigenvalues sorted descending (a copy), with the eigenvectors of one ``eigh``
    in the same order if asked for: the flag adds vectors and changes no eigenvalue."""
    state = as_density(rho)
    w = state.eigenvalues[::-1].copy()
    if not with_vectors:
        return Spectrum(eigenvalues=w)
    return Spectrum(eigenvalues=w, eigenvectors=np.linalg.eigh(state.matrix)[1][:, ::-1])


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr(rho ln rho), in [0, ln d]."""
    return alpha_entropy_q(rho, 1.0)


def alpha_entropy_q(rho, alpha: float) -> float:
    """Order-alpha entropy (1 - Tr rho^alpha) / (alpha - 1); alpha = 1 is von Neumann.

    Evaluated on the stored (ascending) spectrum in the cancellation-free
    form of ``alpha_entropy``, so it stays accurate near alpha = 1.
    """
    a = check_alpha(alpha)
    return float(_entropies(as_density(rho).eigenvalues, a))


def _relative_entropies(wr, R, ws, Vs) -> np.ndarray:
    """S(rho||sigma) from rho's eigenvalues wr and matrix R and sigma's eigenpairs (ws, Vs).

    Broadcasts over leading axes. The form
    sum_k r_k ln r_k - sum_l <sigma_l|rho|sigma_l> ln s_l needs no
    eigenvectors of rho; r_k <= 0 add nothing, as in the kernel. +inf
    where rho puts weight Tr rho Pi > 1e-10 on sigma's null space (Pi
    projects onto its eigenvectors with eigenvalues <= SUPPORT_TOL);
    otherwise floored at 0 (Klein's inequality).
    """
    # diag[..., l] = <sigma_l|rho|sigma_l>. U holds sigma's eigenvectors as contiguous rows,
    # so that einsum's inner loop runs along contiguous memory.
    U = np.ascontiguousarray(np.swapaxes(Vs, -1, -2))
    diag = np.einsum("...lk,...km,...lm->...l", U.conj(), R, U).real
    null = ws <= SUPPORT_TOL
    escape = (diag * null).sum(axis=-1) > SUPPORT_TOL
    tr_rho_ln_sigma = (diag * np.log(np.where(null, 1.0, ws))).sum(axis=-1)
    d = -_entropies(wr, 1.0) - tr_rho_ln_sigma
    return np.where(escape, math.inf, np.where(d <= 0.0, 0.0, d))


def relative_entropy(rho, sigma) -> float:
    """S(rho||sigma) = Tr rho ln rho - Tr rho ln sigma.

    Returns +inf when the support of rho is not contained in the support
    of sigma: when rho puts weight Tr rho Pi > 1e-10 on the null space of
    sigma, Pi being the projector onto the eigenvectors of sigma with
    eigenvalues <= 1e-10. Every eigenvalue of rho > 0 counts.
    """
    X, w = _density_stack((rho, sigma))
    ws, Vs = np.linalg.eigh(X[1])
    return float(_relative_entropies(w[0], X[0], ws, Vs))


def trace_distance(rho, sigma) -> float:
    """||rho - sigma||_1 = sum |eigenvalues of (rho - sigma)|, in [0, 2]."""
    r, s = _density_stack((rho, sigma))[0]
    return float(np.sum(np.abs(np.linalg.eigvalsh(r - s))))


def hs_distance_sq(rho, sigma) -> float:
    """Squared Hilbert-Schmidt distance Tr((rho - sigma)^2)."""
    r, s = _density_stack((rho, sigma))[0]
    return float(np.sum(np.abs(r - s) ** 2))


def is_pure(rho) -> bool:
    """Rank-1 test: largest eigenvalue within 1e-9 of 1.

    Looser than the rank rule of ``_rank_rule`` (within 4 d eps), which
    decides only how the spectrum is stored and read.
    """
    return float(as_density(rho).eigenvalues[-1]) >= 1.0 - PURITY_TOL


def _two_level(gap) -> tuple:
    """Unit-trace two-level eigenvalues (1 +- sqrt(1 - gap)) / 2 at gaps 4 lambda_+ lambda_- of
    any shape, as (lambda_+, lambda_-).

    The smaller is gap / (4 lambda_+), free of the cancellation in
    (1 - sqrt(1 - gap)) / 2. A gap above 1 (rounding) reads 1; a gap
    below 0 gives lambda_- < 0, which the caller's PSD check sees.
    """
    gap = np.minimum(gap, 1.0)
    upper = (1.0 + np.sqrt(1.0 - gap)) / 2.0
    return upper, gap / (4.0 * upper)


def qubit_mixture_eigenvalues(rho) -> tuple[float, float]:
    """Closed-form qubit eigenvalues: ``_two_level`` at gap = 4 det rho, from the entries."""
    state = as_density(rho)
    if state.dim != 2:
        raise ValueError(f"need a 2x2 state, got dimension {state.dim}")
    (a, b), (_, d) = state.matrix
    return tuple(map(float, _two_level(max(4.0 * float(a.real * d.real - abs(b) ** 2), 0.0))))


def pure_overlap_eigenvalues(rho1, rho2) -> tuple[float, float]:
    """Nonzero eigenvalues 1/2 +- sqrt(Tr(rho1 rho2)) / 2 of an even mixture of two pure states.

    The remaining d - 2 eigenvalues of (rho1 + rho2) / 2 vanish because the
    mixture is supported on the span of the two state vectors. They are
    ``_two_level`` at gap = 1 - Tr(rho1 rho2) = ||rho1 - rho2||_HS^2 / 2, so the
    smaller one keeps full relative precision for nearly equal states.
    """
    r1, r2 = as_density(rho1), as_density(rho2)
    if not is_pure(r1) or not is_pure(r2):
        raise ValueError("both states must be pure (rank 1)")
    return tuple(map(float, _two_level(max(hs_distance_sq(r1, r2) / 2.0, 0.0))))


def trace_exp_qubit(rho, t: float) -> float:
    """Tr(exp(-t rho)) = e^{-t lambda_+} + e^{-t lambda_-} for a qubit, at the eigenvalues of
    ``qubit_mixture_eigenvalues``. t = inf gives the limit, the number of zero eigenvalues."""
    lams = qubit_mixture_eigenvalues(rho)
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"need t >= 0, got {t}")
    return sum(math.exp(-t * lam) if lam > 0.0 else 1.0 for lam in lams)


def ginibre_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank mixed state G G^dagger / Tr(G G^dagger), G complex Gaussian."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = G @ G.conj().T
    return validate_density(A / np.trace(A).real)


def random_pure_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Rank-1 projector onto a normalized complex Gaussian vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return validate_density(np.outer(v, v.conj()))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian matrix."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
