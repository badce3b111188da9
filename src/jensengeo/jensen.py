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
    _check_labels,
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
    _is_state,
    _relative_entropies,
    as_density,
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
# the even weights of a pair, validated once
_EVEN = Distribution(probs=np.array([0.5, 0.5]))


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
    """A divergence value (nats) tagged with its order and producing formula."""

    value: float
    alpha: float
    via: str  # "entropy_difference" | "kl_average"


def _validate_points(points) -> tuple[str, tuple]:
    """Validate points as all distributions of one length or all states of one dimension.

    The first point decides which; returns the kind and the validated points.
    Labelled distributions must all carry the same labels.
    """
    if _is_state(points[0]):
        pts = tuple(as_density(p) for p in points)
        kind, sizes, what = "quantum", {p.dim for p in pts}, "dimensions"
    else:
        pts = tuple(as_distribution(p) for p in points)
        kind, sizes, what = "classical", {len(p) for p in pts}, "lengths"
    if len(sizes) != 1:
        raise ValueError(f"points of mixed {what}: {sorted(sizes)}")
    if kind == "classical":
        _check_labels(pts)
    return kind, pts


def _stack(points: tuple) -> np.ndarray:
    """Validated points as one (N, n) or (N, d, d) array."""
    return np.stack([p.matrix if isinstance(p, DensityMatrix) else p.probs for p in points])


def _mix(members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The mixtures sum_j weights[..., j] * members[..., j, ...], one per row of ``weights``."""
    w = weights.reshape(weights.shape + (1,) * (members.ndim - weights.ndim))
    return (w * members).sum(axis=weights.ndim - 1)


def _weighted_mean(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j w_j v_j over the last axis, skipping zero weights (so 0 * inf is 0)."""
    return (weights * np.where(weights > 0.0, values, 0.0)).sum(axis=-1)


def _gaps(X: np.ndarray, index: np.ndarray, weights: np.ndarray, a: float) -> np.ndarray:
    """Order-a concavity gaps of R weighted families of validated points.

    ``X`` stacks the points, distributions as (N, n) or states as
    (N, d, d); row r of ``index`` (R, k) picks the members of family r and
    row r of ``weights`` (R, k) their weights. Returns, for every r,
    S_a(mixture_r) - sum_j w_rj S_a(X[index_rj]). Every point and every
    mixture is decomposed once, in one stacked call per side. The gaps
    are nonnegative by concavity, so float noise below zero (and -0.0)
    is returned as 0.0. At order 1
    each gap is checked against the averaged relative entropy
    sum_j w_rj D(X[index_rj] || mixture_r) from the same decompositions,
    and a disagreement beyond DUAL_TOL_CLASSICAL / DUAL_TOL_QUANTUM
    raises ArithmeticError.
    """
    quantum = X.ndim == 3
    mix = _mix(X[index], weights)
    if quantum and a == 1.0:
        (wx, Vx), (wm, Vm) = np.linalg.eigh(X), np.linalg.eigh(mix)
    elif quantum:
        wx, wm = np.linalg.eigvalsh(X), np.linalg.eigvalsh(mix)
    else:
        wx, wm = X, mix
    if quantum:
        if wm.min() < EIG_FLOOR:
            raise ValueError(f"mixture is not positive semidefinite: min eigenvalue {wm.min():.3e}")
        wx, wm = _clipped(wx), _clipped(wm)
    gaps = _entropies(wm, a) - (weights * _entropies(wx, a)[index]).sum(axis=-1)
    floored = np.where(gaps <= 0.0, 0.0, gaps)
    if a != 1.0:
        return floored
    if quantum:
        d = _relative_entropies(wx[index], Vx[index], wm[:, None], Vm[:, None])
        tol = DUAL_TOL_QUANTUM
    else:
        d = _kl(X[index], mix[:, None])
        tol = DUAL_TOL_CLASSICAL
    avg = _weighted_mean(weights, d)
    bad = ~np.isfinite(avg) | (np.abs(gaps - avg) > tol)
    if bad.any():
        r = int(np.argmax(bad))
        raise ArithmeticError(
            f"entropy-difference ({gaps[r]}) and divergence-average ({avg[r]}) forms disagree"
        )
    return floored


def weighted_family(members, weights) -> WeightedFamily:
    """Validate members and weights into a homogeneous weighted family.

    Members must all be classical distributions of one length, or all be
    density matrices of one dimension. A single member is accepted (the
    divergence is then trivially zero).
    """
    if len(members) < 1:
        raise ValueError("family needs at least one member")
    w = as_distribution(weights)
    if len(w) != len(members):
        raise ValueError(f"{len(members)} members but {len(w)} weights")
    kind, pts = _validate_points(members)
    return WeightedFamily(members=pts, weights=w, kind=kind)


def family_from_json(obj: dict) -> WeightedFamily:
    """Wire format: {"weights": [...], "members": [...], "kind": "classical"|"quantum"}."""
    if "weights" not in obj or "members" not in obj:
        raise ValueError('family mapping must contain "weights" and "members"')
    kind = obj.get("kind")
    members = obj["members"]
    if not isinstance(members, list):
        raise ValueError('family "members" must be a list')
    if kind == "quantum":
        members = [as_density(m) for m in members]
    elif kind == "classical":
        members = [as_distribution(m) for m in members]
    elif kind is not None:
        raise ValueError(f'kind must be "classical" or "quantum", got {kind!r}')
    return weighted_family(members, obj["weights"])


def family_to_json(fam: WeightedFamily) -> dict:
    from .quantum import density_to_json

    if fam.kind == "quantum":
        members = [density_to_json(m) for m in fam.members]
    else:
        members = [list(map(float, m.probs)) for m in fam.members]
    return {
        "weights": list(map(float, fam.weights.probs)),
        "members": members,
        "kind": fam.kind,
    }


def mixture(fam: WeightedFamily):
    """The barycenter: weighted sum of the members."""
    mix = _mix(_stack(fam.members), fam.weights.probs)
    return validate_density(mix) if fam.kind == "quantum" else as_distribution(mix)


def _require_kind(fam: WeightedFamily, kind: str) -> None:
    if fam.kind != kind:
        raise ValueError(f"need a {kind} family, got {fam.kind}")


def _divergence(fam: WeightedFamily, alpha: float, kind: str) -> DivergenceResult:
    """The order-alpha gap of one family of the given kind, through ``_gaps``."""
    a = check_alpha(alpha)
    _require_kind(fam, kind)
    index = np.arange(len(fam))[None]
    value = _gaps(_stack(fam.members), index, fam.weights.probs[None], a)[0]
    return DivergenceResult(value=float(value), alpha=a, via="entropy_difference")


def jd_general(fam: WeightedFamily) -> DivergenceResult:
    """Shannon Jensen divergence of a weighted family.

    Computes both H(mixture) - sum_i pi_i H(P_i) and the identity form
    sum_i pi_i D(P_i || mixture), requires them to agree to 1e-10, and
    returns the entropy-difference value.
    """
    return jd_alpha_general(fam, 1.0)


def jd_alpha_general(fam: WeightedFamily, alpha: float) -> DivergenceResult:
    """Order-alpha Jensen divergence S_a(mixture) - sum_i pi_i S_a(P_i)."""
    return _divergence(fam, alpha, "classical")


def jd_alpha(p, q, alpha: float = 1.0) -> DivergenceResult:
    """Order-alpha Jensen divergence of two distributions with even weights."""
    fam = weighted_family([as_distribution(p), as_distribution(q)], _EVEN)
    return jd_alpha_general(fam, alpha)


def qjd_general(fam: WeightedFamily) -> DivergenceResult:
    """Von Neumann Jensen divergence, cross-checked against averaged relative entropy."""
    return qjd_alpha_general(fam, 1.0)


def qjd_alpha_general(fam: WeightedFamily, alpha: float) -> DivergenceResult:
    """Order-alpha quantum Jensen divergence S_a(mixture) - sum_i pi_i S_a(rho_i).

    For alpha != 1 only the entropy-difference form is defined; there is
    no averaged-relative-entropy identity away from order 1.
    """
    return _divergence(fam, alpha, "quantum")


def qjd_alpha(rho, sigma, alpha: float = 1.0) -> DivergenceResult:
    """Order-alpha quantum Jensen divergence of two states with even weights."""
    fam = weighted_family([as_density(rho), as_density(sigma)], _EVEN)
    return qjd_alpha_general(fam, alpha)


def redundancy(fam: WeightedFamily, q) -> float:
    """Mean coding redundancy sum_i pi_i D(P_i || Q) of coding for Q.

    Minimized over Q exactly at the mixture, where it equals the Jensen
    divergence of the family. +inf propagates from any support escape.
    """
    _require_kind(fam, "classical")
    Q = as_distribution(q)
    if len(Q) != len(fam.members[0]):
        raise ValueError("reference distribution has the wrong length")
    _check_labels(fam.members + (Q,))
    return float(_weighted_mean(fam.weights.probs, _kl(_stack(fam.members), Q.probs)))


def compensation_residual(fam: WeightedFamily, q) -> float:
    """| sum pi_i D(P_i||Q) - sum pi_i D(P_i||mixture) - D(mixture||Q) |.

    The three terms satisfy an exact identity for any Q, so the residual
    is float noise; infinite terms make the identity untestable and raise.
    """
    _require_kind(fam, "classical")
    r_q = redundancy(fam, q)
    r_mix = jd_general(fam).value
    d_mix_q = kl_divergence(mixture(fam), q)
    if math.isinf(r_q) or math.isinf(d_mix_q):
        raise ValueError("identity requires finite divergences (Q must dominate the mixture)")
    return float(abs(r_q - r_mix - d_mix_q))


def q_redundancy(fam: WeightedFamily, sigma) -> float:
    """Mean quantum coding redundancy sum_i pi_i S(rho_i || sigma)."""
    _require_kind(fam, "quantum")
    s = as_density(sigma)
    if s.dim != fam.members[0].dim:
        raise ValueError("reference state has the wrong dimension")
    w, V = np.linalg.eigh(_stack(fam.members + (s,)))
    d = _relative_entropies(w[:-1], V[:-1], w[-1], V[-1])
    return float(_weighted_mean(fam.weights.probs, d))


def donald_residual(fam: WeightedFamily, sigma) -> float:
    """| sum pi_i S(rho_i||sigma) - sum pi_i S(rho_i||mixture) - S(mixture||sigma) |."""
    _require_kind(fam, "quantum")
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
