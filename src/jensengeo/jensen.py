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
)
from .quantum import (
    EIG_FLOOR,
    DensityMatrix,
    _density_stack,
    _is_rank_one,
    _is_state,
    _relative_entropies,
    _two_level,
    density_to_json,
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

    ``kind`` ("classical" or "quantum"; any other is refused) says which; by
    default the first point decides. The points are validated in one call of
    that kind's ``_distribution_stack`` or ``_density_stack``. Returns the kind, the
    validated points stacked as (N, n) or (N, d, d), the states'
    eigenvalues as ``_density_stack`` returns them (None for
    distributions), and the labels (None for states).
    """
    if kind is None:
        kind = "quantum" if _is_state(points[0]) else "classical"
    elif kind not in ("classical", "quantum"):
        raise ValueError(f'kind must be "classical" or "quantum", got {kind!r}')
    if kind == "quantum":
        return kind, *_density_stack(points), [None] * len(points)
    X, labels = _distribution_stack(points)
    return kind, X, None, labels


def _stack(fam: WeightedFamily) -> tuple[np.ndarray, np.ndarray | None]:
    """The members of fam as one validated array, and the eigenvalues validation found."""
    return _validated_stack(fam.members, fam.kind)[1:3]


def _mix(members: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The mixtures sum_j weights[..., j] * members[..., j, ...], one per row of ``weights``."""
    w = weights.reshape(weights.shape + (1,) * (members.ndim - weights.ndim))
    return (w * members).sum(axis=weights.ndim - 1)


def _weighted_mean(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j w_j v_j over the last axis, skipping zero weights (so 0 * inf is 0)."""
    return (weights * np.where(weights > 0.0, values, 0.0)).sum(axis=-1)


def _spreads(members: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """||x_rj - m_r||^2 of the members (R, k, ...) about their mixtures (R, ...), Euclidean or
    Hilbert-Schmidt over the complex entries; overwrites members with the deviations."""
    members -= mix[:, None]
    sq = np.abs(members)
    sq *= sq
    return sq.reshape(members.shape[:2] + (-1,)).sum(axis=-1)


def _is_two_level(wx: np.ndarray, index: np.ndarray) -> bool:
    """Whether every family of states (members' eigenvalues wx, rows of index) mixes to at most
    two nonzero eigenvalues, as qubits do, and at most two pure states in any dimension."""
    d = wx.shape[1]
    return d == 2 or (d > 2 and index.shape[1] <= 2 and bool(_is_rank_one(wx).all()))


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
    row r of ``weights`` (R, k) their weights. States need ``wx``, the
    (N, d) eigenvalues that ``_density_stack`` returned with X. Returns, for
    every r, S_a(mixture_r) - sum_j w_rj S_a(X[index_rj]), and the dual
    residuals (None away from order 1).

    Where the mixtures' spectra come from depends on the order and the points:
    - order 2: nowhere. S_2(x) = 1 - ||x||^2 and the weights sum to 1, so
      the gap is sum_j w_rj ||X[index_rj] - mixture_r||^2 (Euclidean, or
      Hilbert-Schmidt over the complex entries), nonnegative as computed.
    - two-level calls, whose every mixture has at most two nonzero
      eigenvalues: qubits, or pure states (spectrum (0, ..., 0, 1) by the
      rank rule of validation) in families of at most two, in any
      dimension. ``_two_level`` gives lambda_+ and lambda_- from
      g = 4 lambda_+ lambda_- = 4 sum_j w_rj det x_j + 2 sum_j w_rj ||x_j - m_r||^2,
      det x_j being the product of its two largest eigenvalues, and the
      other eigenvalues are 0: no eigensolver.
    - other calls, a set that mixes pure and other states in d >= 3
      included: one stacked ``eigvalsh`` of the mixtures, or ``eigh`` at
      order 1. The pure pairs of such a set read the eigensolver's noise
      that their pair calls do not (see the rank rule in ``quantum``).
    The points' eigenvalues are ``wx``, and are not decomposed again; the
    entropies of the points and of the mixtures come from one call.
    At order 1 each gap is checked against the averaged relative entropy
    sum_j w_rj (-Tr x_j ln m_r - S(x_j)), one expression for both kinds: for
    distributions entrywise, for states from the mixtures' eigenpairs, and
    in a two-level call as
    Tr x_j ln m_r = ln lambda_+ + c (Tr(x_j m_r) - lambda_+) on the mixture's
    support, c being the divided difference of ln at lambda_- and lambda_+.
    The residuals are |gap - average|, and one beyond DUAL_TOL_CLASSICAL /
    DUAL_TOL_QUANTUM raises ArithmeticError.
    Entries and eigenvalues <= 0 (float noise, as points and mixtures below
    EIG_FLOOR are refused) add nothing to either form, so the check, like
    the gap, never reads +inf: m_r >= w_rj x_j supports every member, also
    where an entry underflows to 0 or an eigenvalue is at most SUPPORT_TOL.
    The entropy-difference gaps are nonnegative by concavity, so float noise
    below zero (and -0.0) is returned as 0.0.
    """
    quantum = X.ndim == 3
    members = X[index]
    mix = _mix(members, weights)
    if a == 2.0:
        # The mixtures of validated states need no PSD check: by Weyl's inequality
        # lambda_min(sum_j w_j rho_j) >= sum_j w_j lambda_min(rho_j) >= EIG_FLOOR.
        return (weights * _spreads(members, mix)).sum(axis=-1), None
    two_level = quantum and _is_two_level(wx, index)
    if not quantum:
        wx, wm = X, mix
    elif two_level:
        if a == 1.0:  # Tr(x_j m), the real inner product of the entries
            tr_xm = np.einsum("rjab,rab->rj", members.view(float), mix.view(float))
        det = (wx[:, -1] * wx[:, -2])[index]
        g = (weights * (4.0 * det + 2.0 * _spreads(members, mix))).sum(axis=-1)
        wm = np.zeros(mix.shape[:2])
        wm[:, -1], wm[:, -2] = _two_level(g)
    else:
        wm, Vm = np.linalg.eigh(mix) if a == 1.0 else (np.linalg.eigvalsh(mix), None)
    if quantum and wm.min() < EIG_FLOOR:
        raise ValueError(f"mixture is not positive semidefinite: min eigenvalue {wm.min():.3e}")
    h = _entropies(np.concatenate((wx, wm)), a)
    hx = h[: len(wx)][index]
    gaps = h[len(wx) :] - (weights * hx).sum(axis=-1)
    floored = np.where(gaps <= 0.0, 0.0, gaps)
    if a != 1.0:
        return floored, None
    # m >= w_j x_j: no member escapes the mixture's support, so no SUPPORT_TOL rule and no +inf
    ln_m = np.log(np.where(wm > 0.0, wm, 1.0))
    if two_level:
        lo, hi = wm[:, -2], wm[:, -1]
        c = np.divide(ln_m[:, -1] - ln_m[:, -2], hi - lo, out=1.0 / hi, where=hi > lo)
        tr_x_ln_m = ln_m[:, -1, None] + c[:, None] * (tr_xm - hi[:, None])
    else:
        if quantum:  # the members' weights <u_l|x_j|u_l> on the mixture's eigenvectors, rows of U
            U = np.ascontiguousarray(np.swapaxes(Vm, -1, -2))
            members = np.einsum("rlk,rjkm,rlm->rjl", U.conj(), members, U).real
        tr_x_ln_m = (members * ln_m[:, None]).sum(axis=-1)
    avg = (weights * (-tr_x_ln_m - hx)).sum(axis=-1)
    residual = np.abs(gaps - avg)
    bad = ~(residual <= (DUAL_TOL_QUANTUM if quantum else DUAL_TOL_CLASSICAL))
    if bad.any():
        r = int(np.argmax(bad))
        raise ArithmeticError(
            f"entropy-difference ({gaps[r]}) and divergence-average ({avg[r]}) forms disagree"
        )
    return floored, residual


def weighted_family(members, weights, kind: str | None = None) -> WeightedFamily:
    """Validate members and weights into a homogeneous weighted family.

    Members must all be distributions of one length, or all be states of
    one dimension, in the forms ``as_distribution`` or ``as_density`` accepts;
    ``kind`` ("classical" or "quantum"; any other is refused) requires one of
    the two, and by default the first member decides. A single member is
    accepted (the divergence is then trivially zero).
    """
    if len(members) < 1:
        raise ValueError("family needs at least one member")
    w = as_distribution(weights)
    if len(w) != len(members):
        raise ValueError(f"{len(members)} members but {len(w)} weights")
    kind, X, wx, labels = _validated_stack(members, kind)

    def point(i, m):
        # members that were Distribution or DensityMatrix objects already are kept as they are
        if isinstance(m, (Distribution, DensityMatrix)):
            return m
        if kind == "quantum":
            return DensityMatrix(matrix=X[i], eigenvalues=wx[i])
        return Distribution(probs=X[i], labels=labels[i])

    return WeightedFamily(members=tuple(map(point, range(len(X)), members)), weights=w, kind=kind)


def family_from_json(obj: dict) -> WeightedFamily:
    """Wire format: {"weights": [...], "members": [...], "kind": "classical"|"quantum"}.

    Anything but a mapping with "weights" and a list of "members" is refused.
    """
    if not isinstance(obj, dict) or "weights" not in obj or "members" not in obj:
        raise ValueError('family mapping must contain "weights" and "members"')
    members = obj["members"]
    if not isinstance(members, list):
        raise ValueError('family "members" must be a list')
    return weighted_family(members, obj["weights"], obj.get("kind"))


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

    ``wx`` is passed on to ``_gaps``: the eigenvalues of the states, which states need.
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


def _divergences_to(points, kind: str, ref) -> np.ndarray:
    """D(x||ref) of every point, validated with ref in one call; states take one ``eigh`` of ref."""
    _, X, w, _ = _validated_stack((*points, ref), kind)
    if kind == "classical":
        return _kl(X[:-1], X[-1])
    return _relative_entropies(w[:-1], X[:-1], *np.linalg.eigh(X[-1]))


def redundancy(fam: WeightedFamily, q) -> float:
    """Mean coding redundancy sum_i pi_i D(P_i || Q) of coding for Q.

    Minimized over Q exactly at the mixture, where it equals the Jensen
    divergence of the family. +inf propagates from any support escape.
    """
    _require_kind(fam, "classical")
    return float(_weighted_mean(fam.weights.probs, _divergences_to(fam.members, fam.kind, q)))


def q_redundancy(fam: WeightedFamily, sigma) -> float:
    """Mean quantum coding redundancy sum_i pi_i S(rho_i || sigma)."""
    _require_kind(fam, "quantum")
    return float(_weighted_mean(fam.weights.probs, _divergences_to(fam.members, fam.kind, sigma)))


def _identity_residual(fam: WeightedFamily, ref) -> float:
    """| sum pi_i D(x_i||ref) - sum pi_i D(x_i||mixture) - D(mixture||ref) | of either kind.

    A failed cross-check of the middle term (ArithmeticError) is reported before an infinite term.
    """
    d = _divergences_to(fam.members + (mixture(fam),), fam.kind, ref)
    r_ref = _weighted_mean(fam.weights.probs, d[:-1])
    X, wx = _stack(fam)
    r_mix = _divergence(X, fam.weights.probs, 1.0, wx).value
    if math.isinf(r_ref) or math.isinf(d[-1]):
        raise ValueError("identity needs finite terms: the reference must support the mixture")
    return float(abs(r_ref - r_mix - d[-1]))


def compensation_residual(fam: WeightedFamily, q) -> float:
    """| sum pi_i D(P_i||Q) - sum pi_i D(P_i||mixture) - D(mixture||Q) |.

    The three terms satisfy an exact identity for any Q, so the residual
    is float noise; infinite terms make the identity untestable and raise.
    """
    _require_kind(fam, "classical")
    return _identity_residual(fam, q)


def donald_residual(fam: WeightedFamily, sigma) -> float:
    """| sum pi_i S(rho_i||sigma) - sum pi_i S(rho_i||mixture) - S(mixture||sigma) |."""
    _require_kind(fam, "quantum")
    return _identity_residual(fam, sigma)


def holevo_bound(fam: WeightedFamily) -> float:
    """The Holevo quantity of an ensemble: its von Neumann Jensen divergence.

    Upper-bounds the classical information extractable per use of a
    channel that encodes symbol i as state rho_i with frequency pi_i.
    """
    return qjd_general(fam).value
