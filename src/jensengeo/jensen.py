"""Jensen divergences for weighted families of distributions or states.

Every divergence here is the concavity gap of an entropy: the entropy of
the weighted mixture minus the weighted mean of the member entropies.
That entropy-difference form is the authoritative value; where an
averaged-relative-entropy identity exists (order 1), it is computed as a
cross-check and the two are required to agree to within float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    Distribution,
    _distribution_stack,
    _entropies,
    _kl,
    as_distribution,
    check_alpha,
    kl_divergence,
)
from .quantum import (
    EIG_FLOOR,
    DensityMatrix,
    _clipped,
    _density_stack,
    _is_state,
    _relative_entropies,
    _spectra,
    as_density,
    density_to_json,
    relative_entropy,
    validate_density,
)

__all__ = [
    "WeightedFamily",
    "weighted_family",
    "family_from_json",
    "family_to_json",
    "mixture",
    "DivergenceResult",
    "jd_general",
    "jd_alpha_general",
    "jd_alpha",
    "qjd_general",
    "qjd_alpha_general",
    "qjd_alpha",
    "redundancy",
    "compensation_residual",
    "q_redundancy",
    "donald_residual",
    "holevo_bound",
]

# max tolerated disagreement between the entropy-difference form and the
# averaged-relative-entropy form
DUAL_TOL_CLASSICAL = 1e-10
DUAL_TOL_QUANTUM = 1e-9
# the even weights of a pair
_EVEN = np.array([0.5, 0.5])


@dataclass(frozen=True)
class WeightedFamily:
    """Members (all Distributions or all DensityMatrices) plus weights."""

    members: tuple
    weights: Distribution
    kind: str  # "classical" | "quantum"

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class DivergenceResult:
    """A divergence value (nats) tagged with its order and producing formula.

    ``dual_residual`` is |entropy difference - averaged relative entropy|
    at order 1, the margin of the cross-check against DUAL_TOL_CLASSICAL
    or DUAL_TOL_QUANTUM, and None at other orders.
    """

    value: float
    alpha: float
    via: str  # "entropy_difference"
    dual_residual: float | None = None


def _validated_stack(
    points, kind: str | None = None
) -> tuple[str, np.ndarray, np.ndarray | None, list]:
    """Validate points as all distributions of one length or all states of one dimension.

    ``kind`` ("classical" or "quantum") says which; by default the first
    point decides. The points are validated in one call of that kind's
    ``_distribution_stack`` or ``_density_stack``. Returns the kind, the
    validated points stacked as (N, n) or (N, d, d), the states'
    eigenvalues as ``_density_stack`` returns them (None for
    distributions), and the labels (None for states).
    """
    if kind is None:
        kind = "quantum" if _is_state(points[0]) else "classical"
    if kind == "quantum":
        return kind, *_density_stack(points), [None] * len(points)
    X, labels = _distribution_stack(points)
    return kind, X, None, labels


def _stack(fam: WeightedFamily, *extra) -> tuple[np.ndarray, np.ndarray | None]:
    """The members of fam, and extra points of its kind after them, as one validated array.

    Also returns the eigenvalues that validation found (see ``_validated_stack``).
    """
    return _validated_stack(fam.members + extra, fam.kind)[1:3]


def _mix(members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The mixtures sum_j weights[..., j] * members[..., j, ...], one per row of ``weights``."""
    w = weights.reshape(weights.shape + (1,) * (members.ndim - weights.ndim))
    return (w * members).sum(axis=weights.ndim - 1)


def _weighted_mean(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j w_j v_j over the last axis, skipping zero weights (so 0 * inf is 0)."""
    return (weights * np.where(weights > 0.0, values, 0.0)).sum(axis=-1)


def _gaps(
    X: np.ndarray,
    index: np.ndarray,
    weights: np.ndarray,
    a: float,
    wx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Order-a concavity gaps of R weighted families of validated points.

    ``X`` stacks the points, distributions as (N, n) or states as
    (N, d, d); row r of ``index`` (R, k) picks the members of family r and
    row r of ``weights`` (R, k) their weights. For states, ``wx`` holds
    the eigenvalues that ``_density_stack`` returned with X. Returns, for
    every r, S_a(mixture_r) - sum_j w_rj S_a(X[index_rj]), and the dual
    residuals (None away from order 1).

    What is decomposed depends on the order (and only states are):
    - order 2: nothing. S_2(x) = 1 - ||x||^2 and the weights sum to 1, so
      the gap is sum_j w_rj ||X[index_rj] - mixture_r||^2 (Euclidean, or
      Hilbert-Schmidt over the complex entries), nonnegative as computed.
    - other orders: the mixtures, in one stacked ``eigvalsh``. The
      points' eigenvalues are taken from ``wx``; the points it lacks
      (NaN rows, or all when it is None) take one stacked ``eigvalsh``.
    - order 1: the mixtures by ``eigh`` instead, as each gap is checked
      against the averaged relative entropy
      sum_j w_rj D(X[index_rj] || mixture_r), which needs the members'
      eigenvalues and the mixtures' eigenpairs. The residuals are
      |gap - average|, and one beyond DUAL_TOL_CLASSICAL /
      DUAL_TOL_QUANTUM raises ArithmeticError.
    The entropy-difference gaps are nonnegative by concavity, so float
    noise below zero (and -0.0) is returned as 0.0.
    """
    quantum = X.ndim == 3
    members = X[index]
    mix = _mix(members, weights)
    if a == 2.0:
        # The mixtures of validated states need no PSD check: by Weyl's inequality
        # lambda_min(sum_j w_j rho_j) >= sum_j w_j lambda_min(rho_j) >= EIG_FLOOR.
        members -= mix[:, None]  # a copy of the points: their deviations from the mixtures
        sq = np.abs(members)
        sq *= sq
        return (weights * sq.reshape(weights.shape + (-1,)).sum(axis=-1)).sum(axis=-1), None
    if quantum:
        wx = _spectra(X, wx)
        wm, Vm = np.linalg.eigh(mix) if a == 1.0 else (np.linalg.eigvalsh(mix), None)
        if wm.min() < EIG_FLOOR:
            raise ValueError(f"mixture is not positive semidefinite: min eigenvalue {wm.min():.3e}")
        wx, wm = _clipped(wx), _clipped(wm)
    else:
        wx, wm = X, mix
    gaps = _entropies(wm, a) - (weights * _entropies(wx, a)[index]).sum(axis=-1)
    floored = np.where(gaps <= 0.0, 0.0, gaps)
    if a != 1.0:
        return floored, None
    if quantum:
        d = _relative_entropies(wx[index], members, wm[:, None], Vm[:, None])
        tol = DUAL_TOL_QUANTUM
    else:
        d = _kl(members, mix[:, None])
        tol = DUAL_TOL_CLASSICAL
    avg = _weighted_mean(weights, d)
    residual = np.abs(gaps - avg)
    bad = ~np.isfinite(avg) | (residual > tol)
    if bad.any():
        r = int(np.argmax(bad))
        raise ArithmeticError(
            f"entropy-difference ({gaps[r]}) and divergence-average ({avg[r]}) forms disagree"
        )
    return floored, residual


def weighted_family(members, weights, kind: str | None = None) -> WeightedFamily:
    """Validate members and weights into a homogeneous weighted family.

    Members must all be classical distributions of one length, or all be
    density matrices of one dimension; ``kind`` ("classical" or
    "quantum") requires one of the two, and by default the first member
    decides. A single member is accepted (the divergence is then
    trivially zero).
    """
    if len(members) < 1:
        raise ValueError("family needs at least one member")
    w = as_distribution(weights)
    if len(w) != len(members):
        raise ValueError(f"{len(members)} members but {len(w)} weights")
    kind, X, _, labels = _validated_stack(members, kind)

    def point(m, x, lab):
        # members that were Distribution or DensityMatrix objects already are kept as they are
        if isinstance(m, (Distribution, DensityMatrix)):
            return m
        return DensityMatrix(matrix=x) if kind == "quantum" else Distribution(probs=x, labels=lab)

    return WeightedFamily(members=tuple(map(point, members, X, labels)), weights=w, kind=kind)


def family_from_json(obj: dict) -> WeightedFamily:
    """Wire format: {"weights": [...], "members": [...], "kind": "classical"|"quantum"}."""
    if "weights" not in obj or "members" not in obj:
        raise ValueError('family mapping must contain "weights" and "members"')
    kind = obj.get("kind")
    members = obj["members"]
    if not isinstance(members, list):
        raise ValueError('family "members" must be a list')
    if kind not in (None, "classical", "quantum"):
        raise ValueError(f'kind must be "classical" or "quantum", got {kind!r}')
    return weighted_family(members, obj["weights"], kind)


def family_to_json(fam: WeightedFamily) -> dict:
    """The wire format of ``family_from_json``; labelled members keep their labels."""
    if fam.kind == "quantum":
        members = [density_to_json(m) for m in fam.members]
    else:
        members = [
            list(map(float, m.probs))
            if m.labels is None
            else {"probs": list(map(float, m.probs)), "labels": list(m.labels)}
            for m in fam.members
        ]
    return {
        "weights": list(map(float, fam.weights.probs)),
        "members": members,
        "kind": fam.kind,
    }


def mixture(fam: WeightedFamily):
    """The barycenter: weighted sum of the members."""
    mix = _mix(_stack(fam)[0], fam.weights.probs)
    return validate_density(mix) if fam.kind == "quantum" else as_distribution(mix)


def _require_kind(fam: WeightedFamily, kind: str) -> None:
    if fam.kind != kind:
        raise ValueError(f"need a {kind} family, got {fam.kind}")


def _divergence(
    X: np.ndarray, weights: np.ndarray, alpha: float, wx: np.ndarray | None = None
) -> DivergenceResult:
    """The order-alpha gap of one family whose validated members ``X`` stacks, through ``_gaps``.

    ``wx`` is passed on to ``_gaps``: the eigenvalues of states found by validation.
    """
    a = check_alpha(alpha)
    values, residuals = _gaps(X, np.arange(len(X))[None], weights[None], a, wx)
    return DivergenceResult(
        value=float(values[0]),
        alpha=a,
        via="entropy_difference",
        dual_residual=None if residuals is None else float(residuals[0]),
    )


def jd_general(fam: WeightedFamily) -> DivergenceResult:
    """Shannon Jensen divergence of a weighted family.

    Computes both H(mixture) - sum_i pi_i H(P_i) and the identity form
    sum_i pi_i D(P_i || mixture), requires them to agree to 1e-10, and
    returns the entropy-difference value.
    """
    return jd_alpha_general(fam, 1.0)


def jd_alpha_general(fam: WeightedFamily, alpha: float) -> DivergenceResult:
    """Order-alpha Jensen divergence S_a(mixture) - sum_i pi_i S_a(P_i)."""
    _require_kind(fam, "classical")
    return _divergence(_stack(fam)[0], fam.weights.probs, alpha)


def jd_alpha(p, q, alpha: float = 1.0) -> DivergenceResult:
    """Order-alpha Jensen divergence of two distributions with even weights."""
    return _divergence(_distribution_stack((p, q))[0], _EVEN, alpha)


def qjd_general(fam: WeightedFamily) -> DivergenceResult:
    """Von Neumann Jensen divergence, cross-checked against averaged relative entropy."""
    return qjd_alpha_general(fam, 1.0)


def qjd_alpha_general(fam: WeightedFamily, alpha: float) -> DivergenceResult:
    """Order-alpha quantum Jensen divergence S_a(mixture) - sum_i pi_i S_a(rho_i).

    For alpha != 1 only the entropy-difference form is defined; there is
    no averaged-relative-entropy identity away from order 1.
    """
    _require_kind(fam, "quantum")
    X, w = _stack(fam)
    return _divergence(X, fam.weights.probs, alpha, w)


def qjd_alpha(rho, sigma, alpha: float = 1.0) -> DivergenceResult:
    """Order-alpha quantum Jensen divergence of two states with even weights."""
    X, w = _density_stack((rho, sigma))
    return _divergence(X, _EVEN, alpha, w)


def redundancy(fam: WeightedFamily, q) -> float:
    """Mean coding redundancy sum_i pi_i D(P_i || Q) of coding for Q.

    Minimized over Q exactly at the mixture, where it equals the Jensen
    divergence of the family. +inf propagates from any support escape.
    """
    _require_kind(fam, "classical")
    X = _stack(fam, q)[0]
    return float(_weighted_mean(fam.weights.probs, _kl(X[:-1], X[-1])))


def compensation_residual(fam: WeightedFamily, q) -> float:
    """| sum pi_i D(P_i||Q) - sum pi_i D(P_i||mixture) - D(mixture||Q) |.

    The three terms satisfy an exact identity for any Q, so the residual
    is float noise; infinite terms make the identity untestable and raise.
    """
    _require_kind(fam, "classical")
    q = as_distribution(q)
    r_q = redundancy(fam, q)
    r_mix = jd_general(fam).value
    d_mix_q = kl_divergence(mixture(fam), q)
    if math.isinf(r_q) or math.isinf(d_mix_q):
        raise ValueError("identity requires finite divergences (Q must dominate the mixture)")
    return float(abs(r_q - r_mix - d_mix_q))


def q_redundancy(fam: WeightedFamily, sigma) -> float:
    """Mean quantum coding redundancy sum_i pi_i S(rho_i || sigma)."""
    _require_kind(fam, "quantum")
    X, w = _stack(fam, sigma)
    ws, Vs = np.linalg.eigh(X[-1])
    d = _relative_entropies(_spectra(X[:-1], w[:-1]), X[:-1], ws, Vs)
    return float(_weighted_mean(fam.weights.probs, d))


def donald_residual(fam: WeightedFamily, sigma) -> float:
    """| sum pi_i S(rho_i||sigma) - sum pi_i S(rho_i||mixture) - S(mixture||sigma) |."""
    _require_kind(fam, "quantum")
    sigma = as_density(sigma)
    r_sigma = q_redundancy(fam, sigma)
    r_mix = qjd_general(fam).value
    d_mix_sigma = relative_entropy(mixture(fam), sigma)
    if math.isinf(r_sigma) or math.isinf(d_mix_sigma):
        raise ValueError("identity requires a reference state with full support over the mixture")
    return float(abs(r_sigma - r_mix - d_mix_sigma))


def holevo_bound(fam: WeightedFamily) -> float:
    """The Holevo quantity of an ensemble: its von Neumann Jensen divergence.

    Upper-bounds the classical information extractable per use of a
    channel that encodes symbol i as state rho_i with frequency pi_i.
    """
    return qjd_general(fam).value
