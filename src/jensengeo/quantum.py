"""Density matrices, their spectra, and quantum information quantities.

All matrix functions (log, power, exp) are evaluated through a Hermitian
eigendecomposition; the dimensions in play are small enough that this is
both exact and cheap. Trace distance is the unhalved trace norm
||rho - sigma||_1 = sum |eigenvalues of the difference|, range [0, 2],
mirroring the unhalved total variation on the classical side.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .classical import _entropies, _stack_points, check_alpha

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
SUPPORT_TOL = 1e-10   # eigenvalues <= this count as the null space


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, PSD (up to tolerance) complex matrix."""

    matrix: np.ndarray

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
    an eigenvalue below -1e-8. Smaller negative eigenvalues are kept and
    clipped to zero only when entropic quantities are evaluated.
    """
    return DensityMatrix(matrix=_validate_densities(_density_array(raw)[None])[0][0])


def _density_array(raw) -> np.ndarray:
    """A raw matrix as a square complex array; the values are left to ``_validate_densities``."""
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


def _validate_densities(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state checks of ``validate_density`` on every matrix of an (N, d, d) complex array.

    Returns the matrices symmetrized, with each trace within TRACE_TOL of
    1 (but not 1) divided out, and their (N, d) ascending eigenvalues:
    the one stacked ``eigvalsh`` that finds the smallest eigenvalues
    serves the divergence kernels too. Where several matrices fail, the
    first check that any matrix fails is reported, for the first matrix
    that fails it.
    """
    if not np.isfinite(A).all():
        raise ValueError("density matrix entries must be finite")
    AH = np.swapaxes(A.conj(), -1, -2)
    asym = np.abs(A - AH)
    if asym.max() > HERM_TOL:
        worst = asym.max(axis=(-2, -1))
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {worst[np.argmax(worst > HERM_TOL)]:.3e}"
        )
    A = (A + AH) / 2.0
    tr = A.diagonal(0, -2, -1).sum(axis=-1).real
    dev = np.abs(tr - 1.0)
    if dev.max() > TRACE_TOL:
        raise ValueError(f"trace is {float(tr[np.argmax(dev > TRACE_TOL)])}, not 1")
    np.divide(A, tr[:, None, None], out=A, where=(dev != 0.0)[:, None, None])
    w = np.linalg.eigvalsh(A)
    w_min = w[:, 0]
    if w_min.min() < EIG_FLOOR:
        raise ValueError(
            "matrix is not positive semidefinite: "
            f"min eigenvalue {w_min[np.argmax(w_min < EIG_FLOOR)]:.3e}"
        )
    return A, w


def _density_stack(points) -> tuple[np.ndarray, np.ndarray]:
    """Validate points as states of one dimension, in one stacked call.

    DensityMatrix objects pass through; every other point is parsed (a
    wire-format mapping to its matrix) and shape-checked, and then the
    value checks of ``_validate_densities`` run once, over all of them.
    Returns the (N, d, d) stack and the (N, d) ascending eigenvalues that
    validation computed; the rows of DensityMatrix objects, which skip
    validation, are NaN there (``_spectra`` fills them when needed).
    """
    arrays = [
        p.matrix
        if isinstance(p, DensityMatrix)
        else _density_array(_json_matrix(p) if isinstance(p, dict) else p)
        for p in points
    ]
    raw = [i for i, p in enumerate(points) if not isinstance(p, DensityMatrix)]
    X = _stack_points(arrays, "dimension")
    if len(raw) == len(X):
        return _validate_densities(X)
    w = np.full(X.shape[:2], math.nan)
    if raw:
        X[raw], w[raw] = _validate_densities(X[raw])
    return X, w


def _spectra(X: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """The ascending eigenvalues of the states X, given those ``_density_stack`` found.

    Rows of ``w`` that validation computed are kept; the NaN rows (all
    rows when ``w`` is None) come from one stacked ``eigvalsh`` over
    those states.
    """
    if w is None:
        return np.linalg.eigvalsh(X)
    missing = np.isnan(w[:, 0])
    if missing.any():
        w = w.copy()
        w[missing] = np.linalg.eigvalsh(X[missing])
    return w


def as_density(obj) -> DensityMatrix:
    """Coerce a DensityMatrix, raw matrix, or JSON-style mapping to a state."""
    if isinstance(obj, DensityMatrix):
        return obj
    if isinstance(obj, dict):
        return density_from_json(obj)
    return validate_density(obj)


def _is_state(obj) -> bool:
    """Whether obj is or describes a density matrix, rather than a distribution or a scalar."""
    if isinstance(obj, DensityMatrix):
        return True
    if isinstance(obj, dict):
        return "entries" in obj
    return np.asarray(obj).ndim == 2


def density_to_json(rho) -> dict:
    """Wire format: {"dim": d, "entries": [[[re, im], ...], ...]}."""
    A = as_density(rho).matrix
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in A]
    return {"dim": int(A.shape[0]), "entries": entries}


def density_from_json(obj: dict) -> DensityMatrix:
    return validate_density(_json_matrix(obj))


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
    """Hermitian eigendecomposition, eigenvalues sorted descending."""
    A = as_density(rho).matrix
    if with_vectors:
        w, V = np.linalg.eigh(A)
        order = np.argsort(w)[::-1]
        return Spectrum(eigenvalues=w[order], eigenvectors=V[:, order])
    w = np.linalg.eigvalsh(A)
    return Spectrum(eigenvalues=w[::-1])


def _clipped(w: np.ndarray) -> np.ndarray:
    """Eigenvalues with every negative one set to zero.

    Validation accepts eigenvalues down to EIG_FLOOR (-1e-8), and
    ``jensen._gaps`` refuses mixtures below it, so all the negatives met
    here are taken as float noise of a PSD matrix.
    """
    return np.where(w < 0.0, 0.0, w)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr(rho ln rho), in [0, ln d]."""
    return alpha_entropy_q(rho, 1.0)


def alpha_entropy_q(rho, alpha: float) -> float:
    """Order-alpha entropy (1 - Tr rho^alpha) / (alpha - 1); alpha = 1 is von Neumann.

    Evaluated on the spectrum in the cancellation-free form of
    ``alpha_entropy``, so it stays accurate near alpha = 1.
    """
    a = check_alpha(alpha)
    return float(_entropies(_clipped(spectrum(rho).eigenvalues), a))


def _relative_entropies(wr, R, ws, Vs) -> np.ndarray:
    """S(rho||sigma) from rho's eigenvalues wr and matrix R and sigma's eigenpairs (ws, Vs).

    Broadcasts over leading axes. The form
    sum_k r_k ln r_k - sum_l <sigma_l|rho|sigma_l> ln s_l needs no
    eigenvectors of rho. Eigenvalues <= SUPPORT_TOL (1e-10) count as 0.
    +inf where rho puts weight Tr rho Pi > 1e-10 on the null space of
    sigma (Pi projects onto its eigenvectors with eigenvalues <= 1e-10).
    """
    # diag[..., l] = <sigma_l|rho|sigma_l>. U holds sigma's eigenvectors as contiguous rows,
    # so that einsum's inner loop runs along contiguous memory.
    U = np.ascontiguousarray(np.swapaxes(Vs, -1, -2))
    diag = np.einsum("...lk,...km,...lm->...l", U.conj(), R, U).real
    null = ws <= SUPPORT_TOL
    escape = (diag * null).sum(axis=-1) > SUPPORT_TOL
    tr_rho_ln_rho = -_entropies(np.where(wr > SUPPORT_TOL, wr, 0.0), 1.0)
    tr_rho_ln_sigma = (diag * np.log(np.where(null, 1.0, ws))).sum(axis=-1)
    return np.where(escape, math.inf, tr_rho_ln_rho - tr_rho_ln_sigma)


def relative_entropy(rho, sigma) -> float:
    """S(rho||sigma) = Tr rho ln rho - Tr rho ln sigma.

    Returns +inf when the support of rho is not contained in the support
    of sigma: when rho puts weight Tr rho Pi > 1e-10 on the null space of
    sigma, Pi being the projector onto the eigenvectors of sigma with
    eigenvalues <= 1e-10.
    """
    X, w = _density_stack((rho, sigma))
    ws, Vs = np.linalg.eigh(X[1])
    return float(_relative_entropies(_spectra(X[:1], w[:1])[0], X[0], ws, Vs))


def trace_distance(rho, sigma) -> float:
    """||rho - sigma||_1 = sum |eigenvalues of (rho - sigma)|, in [0, 2]."""
    r, s = _density_stack((rho, sigma))[0]
    return float(np.sum(np.abs(np.linalg.eigvalsh(r - s))))


def hs_distance_sq(rho, sigma) -> float:
    """Squared Hilbert-Schmidt distance Tr((rho - sigma)^2)."""
    r, s = _density_stack((rho, sigma))[0]
    return float(np.sum(np.abs(r - s) ** 2))


def purity(rho) -> float:
    """Tr(rho^2), in [1/d, 1]."""
    A = as_density(rho).matrix
    return float(np.sum(np.abs(A) ** 2))


def is_pure(rho) -> bool:
    """Rank-1 test: largest eigenvalue within 1e-9 of 1."""
    return float(spectrum(rho).eigenvalues[0]) >= 1.0 - PURITY_TOL


def qubit_mixture_eigenvalues(rho) -> tuple[float, float]:
    """Closed-form qubit eigenvalues 1/2 +- sqrt(2 Tr(rho^2) - 1) / 2."""
    state = as_density(rho)
    if state.dim != 2:
        raise ValueError(f"need a 2x2 state, got dimension {state.dim}")
    r = math.sqrt(max(2.0 * purity(state) - 1.0, 0.0))
    return (0.5 + r / 2.0, 0.5 - r / 2.0)


def pure_overlap_eigenvalues(rho1, rho2) -> tuple[float, float]:
    """Nonzero eigenvalues 1/2 +- sqrt(Tr(rho1 rho2)) / 2 of an even mixture of two pure states.

    The remaining d - 2 eigenvalues of (rho1 + rho2) / 2 vanish because the
    mixture is supported on the span of the two state vectors.
    """
    r1 = as_density(rho1)
    r2 = as_density(rho2)
    if not is_pure(r1) or not is_pure(r2):
        raise ValueError("both states must be pure (rank 1)")
    overlap = max(float(np.trace(r1.matrix @ r2.matrix).real), 0.0)
    root = math.sqrt(overlap)
    return (0.5 + root / 2.0, 0.5 - root / 2.0)


def trace_exp_qubit(rho, t: float) -> float:
    """Tr(exp(-t rho)) for a qubit: 2 e^{-t/2} cosh((t/2) sqrt(2 Tr(rho^2) - 1))."""
    state = as_density(rho)
    if state.dim != 2:
        raise ValueError(f"need a 2x2 state, got dimension {state.dim}")
    t = float(t)
    if t < 0.0:
        raise ValueError(f"need t >= 0, got {t}")
    r = math.sqrt(max(2.0 * purity(state) - 1.0, 0.0))
    return 2.0 * math.exp(-t / 2.0) * math.cosh(t * r / 2.0)


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
