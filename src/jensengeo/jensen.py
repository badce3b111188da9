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
    _distribution_array,
    _entropies,
    _kl,
    _validate_distributions,
    as_distribution,
    check_alpha,
    kl_divergence,
)
from .quantum import (
    EIG_FLOOR,
    DensityMatrix,
    _clipped,
    _density_array,
    _is_state,
    _json_matrix,
    _relative_entropies,
    _validate_densities,
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


def _validated_stack(points, kind: str | None = None) -> tuple[str, np.ndarray, list]:
    """Validate points as all distributions of one length or all states of one dimension.

    ``kind`` ("classical" or "quantum") says which; by default the first
    point decides. Distribution and DensityMatrix objects are already
    valid and pass through. Every other point is parsed on its own (a
    mapping to its array and labels) and shape-checked, and then the
    value checks of ``_validate_distributions`` or ``_validate_densities``
    run once, over the stack of all of them. Labelled distributions must
    all carry the same labels. Returns the kind, the validated points
    stacked as (N, n) or (N, d, d), and their labels (None for states).
    """
    if kind is None:
        kind = "quantum" if _is_state(points[0]) else "classical"
    if kind == "quantum":
        cls, what, validate = DensityMatrix, "dimensions", _validate_densities
    else:
        cls, what, validate = Distribution, "lengths", _validate_distributions
    parts = [_parts(p) if isinstance(p, cls) else _parse(p, kind) for p in points]
    sizes = {len(a) for a, _ in parts}
    if len(sizes) != 1:
        raise ValueError(f"points of mixed {what}: {sorted(sizes)}")
    X = np.array([a for a, _ in parts])
    raw = [i for i, p in enumerate(points) if not isinstance(p, cls)]
    if raw:
        X[raw] = validate(X[raw])
    labels = [lab for _, lab in parts]
    _check_labels(labels)
    return kind, X, labels


def _parts(point) -> tuple[np.ndarray, tuple | None]:
    """The array and labels of a Distribution, or the matrix of a DensityMatrix and None."""
    if isinstance(point, DensityMatrix):
        return point.matrix, None
    return point.probs, point.labels


def _parse(point, kind: str) -> tuple[np.ndarray, tuple | None]:
    """A raw point or mapping of the given kind as its shape-checked array and labels."""
    if kind == "classical":
        return _distribution_array(point)
    return _density_array(_json_matrix(point) if isinstance(point, dict) else point), None


def _stack(points: tuple) -> np.ndarray:
    """Validated points as one (N, n) or (N, d, d) array."""
    return np.array([_parts(p)[0] for p in points])


def _mix(members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The mixtures sum_j weights[..., j] * members[..., j, ...], one per row of ``weights``."""
    w = weights.reshape(weights.shape + (1,) * (members.ndim - weights.ndim))
    return (w * members).sum(axis=weights.ndim - 1)


def _weighted_mean(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j w_j v_j over the last axis, skipping zero weights (so 0 * inf is 0)."""
    return (weights * np.where(weights > 0.0, values, 0.0)).sum(axis=-1)


def _gaps(
    X: np.ndarray, index: np.ndarray, weights: np.ndarray, a: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """Order-a concavity gaps of R weighted families of validated points.

    ``X`` stacks the points, distributions as (N, n) or states as
    (N, d, d); row r of ``index`` (R, k) picks the members of family r and
    row r of ``weights`` (R, k) their weights. Returns, for every r,
    S_a(mixture_r) - sum_j w_rj S_a(X[index_rj]), and the dual residuals
    (None away from order 1). Every point and every mixture is decomposed
    once, in one stacked call per side. The gaps are nonnegative by
    concavity, so float noise below zero (and -0.0) is returned as 0.0.
    At order 1 each gap is checked against the averaged relative entropy
    sum_j w_rj D(X[index_rj] || mixture_r) from the same decompositions:
    the residuals are |gap - average|, and one beyond DUAL_TOL_CLASSICAL /
    DUAL_TOL_QUANTUM raises ArithmeticError.
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
        return floored, None
    if quantum:
        d = _relative_entropies(wx[index], Vx[index], wm[:, None], Vm[:, None])
        tol = DUAL_TOL_QUANTUM
    else:
        d = _kl(X[index], mix[:, None])
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
    kind, X, labels = _validated_stack(members, kind)

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
    mix = _mix(_stack(fam.members), fam.weights.probs)
    return validate_density(mix) if fam.kind == "quantum" else as_distribution(mix)


def _require_kind(fam: WeightedFamily, kind: str) -> None:
    if fam.kind != kind:
        raise ValueError(f"need a {kind} family, got {fam.kind}")


def _divergence(X: np.ndarray, weights: np.ndarray, alpha: float) -> DivergenceResult:
    """The order-alpha gap of one family whose validated members ``X`` stacks, through ``_gaps``."""
    a = check_alpha(alpha)
    values, residuals = _gaps(X, np.arange(len(X))[None], weights[None], a)
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
    return _divergence(_stack(fam.members), fam.weights.probs, alpha)


def jd_alpha(p, q, alpha: float = 1.0) -> DivergenceResult:
    """Order-alpha Jensen divergence of two distributions with even weights."""
    return _divergence(_validated_stack((p, q), "classical")[1], _EVEN, alpha)


def qjd_general(fam: WeightedFamily) -> DivergenceResult:
    """Von Neumann Jensen divergence, cross-checked against averaged relative entropy."""
    return qjd_alpha_general(fam, 1.0)


def qjd_alpha_general(fam: WeightedFamily, alpha: float) -> DivergenceResult:
    """Order-alpha quantum Jensen divergence S_a(mixture) - sum_i pi_i S_a(rho_i).

    For alpha != 1 only the entropy-difference form is defined; there is
    no averaged-relative-entropy identity away from order 1.
    """
    _require_kind(fam, "quantum")
    return _divergence(_stack(fam.members), fam.weights.probs, alpha)


def qjd_alpha(rho, sigma, alpha: float = 1.0) -> DivergenceResult:
    """Order-alpha quantum Jensen divergence of two states with even weights."""
    return _divergence(_validated_stack((rho, sigma), "quantum")[1], _EVEN, alpha)


def redundancy(fam: WeightedFamily, q) -> float:
    """Mean coding redundancy sum_i pi_i D(P_i || Q) of coding for Q.

    Minimized over Q exactly at the mixture, where it equals the Jensen
    divergence of the family. +inf propagates from any support escape.
    """
    _require_kind(fam, "classical")
    Q = as_distribution(q)
    if len(Q) != len(fam.members[0]):
        raise ValueError("reference distribution has the wrong length")
    _check_labels([m.labels for m in fam.members + (Q,)])
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
