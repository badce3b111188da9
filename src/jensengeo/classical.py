"""Finite probability distributions and classical information quantities.

All entropic quantities are expressed in nats (natural logarithm). The
conventions 0*ln(0) = 0 and 0*ln(0/q) = 0 apply throughout. Total
variation is the unhalved sum  V(P, Q) = sum_i |p_i - q_i|, so its range
is [0, 2] and disjoint-support distributions are at distance 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Distribution",
    "as_distribution",
    "check_alpha",
    "random_distribution",
    "shannon_entropy",
    "alpha_entropy",
    "binary_alpha_entropy",
    "kl_divergence",
    "total_variation",
    "alpha_norm_power",
]

# |sum(probs) - 1| above this is a hard error; below it we renormalize.
SUM_TOL = 1e-9
# negative entries no smaller than -NEG_CLIP are treated as float noise
NEG_CLIP = 1e-12


def check_alpha(alpha: float) -> float:
    """Validate an entropy order: a finite real > 0. Returns it as float."""
    a = float(alpha)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"entropy order must be a finite real > 0, got {alpha!r}")
    return a


@dataclass(frozen=True)
class Distribution:
    """A probability vector over a finite alphabet, optionally labeled."""

    probs: np.ndarray
    labels: tuple | None = None

    def __len__(self) -> int:
        return int(self.probs.shape[0])


def as_distribution(p) -> Distribution:
    """Validate and coerce a probability vector.

    Accepts a ``Distribution`` (returned as it is), a sequence of floats,
    or a mapping with key ``"probs"`` (and optionally ``"labels"``): the
    one-point case of ``_distribution_stack``. Entries in
    (-1e-12, 0) are clipped to zero; the vector is renormalized when its
    total deviates from 1 by at most 1e-9, and rejected beyond that.
    """
    if isinstance(p, Distribution):
        return p
    X, labels = _distribution_stack((p,))
    return Distribution(probs=X[0], labels=labels[0])


def _distribution_array(p) -> tuple[np.ndarray, tuple | None]:
    """A raw vector or ``"probs"`` mapping as a 1-D float array and its labels.

    Checks the shape and the labels; the values are left to
    ``_validate_distributions``.
    """
    labels = None
    if isinstance(p, dict):
        if "probs" not in p:
            raise ValueError('distribution mapping must contain "probs"')
        labels = p.get("labels")
        if labels is not None:
            try:
                labels = tuple(labels)
            except TypeError:
                raise ValueError(f"distribution labels must be a list, got {labels!r}") from None
        p = p["probs"]
    try:
        probs = np.asarray(p, dtype=float)
    except TypeError:
        raise ValueError("distribution entries must be numbers") from None
    except OverflowError:
        raise ValueError("distribution entries must be finite") from None
    if probs.ndim != 1 or probs.shape[0] < 1:
        raise ValueError(f"distribution must be a non-empty 1-D vector, got shape {probs.shape}")
    if labels is not None and len(labels) != probs.shape[0]:
        raise ValueError("labels and probs have different lengths")
    return probs, labels


def _validate_distributions(P: np.ndarray) -> np.ndarray:
    """The probability checks of ``as_distribution`` on every row of an (N, n) float array.

    Returns the rows with entries in (-NEG_CLIP, 0) set to zero and each
    row whose total is within SUM_TOL of 1 (but not 1) divided by it.
    Where several rows fail, the first check that any row fails is
    reported, for the first row that fails it. A total that overflows
    reads inf and is refused.
    """
    if not np.isfinite(P).all():
        raise ValueError("distribution entries must be finite")
    if P.min() < -NEG_CLIP:
        row = P[np.argmax((P < -NEG_CLIP).any(axis=-1))]
        raise ValueError(f"negative probability below tolerance: min = {row.min()}")
    P = np.where(P < 0.0, 0.0, P)
    with np.errstate(over="ignore"):
        totals = P.sum(axis=-1, keepdims=True)
    dev = np.abs(totals - 1.0)
    if dev.max() > SUM_TOL:
        total = float(totals[np.argmax(dev > SUM_TOL), 0])
        raise ValueError(f"probabilities sum to {total}, not 1")
    np.divide(P, totals, out=P, where=dev != 0.0)
    return P


def _check_labels(labels) -> None:
    """Refuse the labels of validated distributions when they differ.

    Entries are compared by position, which matches letters only over one
    labelled alphabet; an unlabelled distribution (labels None) pairs by
    position with any.
    """
    labels = [lab for lab in labels if lab is not None]
    other = next((lab for lab in labels if lab != labels[0]), None)
    if other is not None:
        raise ValueError(f"distributions carry different labels: {labels[0]} and {other}")


def _stack_points(arrays: list, what: str) -> np.ndarray:
    """Stack the parsed arrays of a point set; ``what`` names the size
    ("length" or "dimension") that must agree across the points."""
    sizes = {len(a) for a in arrays}
    if len(sizes) != 1:
        raise ValueError(f"{what} mismatch: points of mixed {what}s: {sorted(sizes)}")
    return np.array(arrays)


def _distribution_stack(points) -> tuple[np.ndarray, list]:
    """Validate points as distributions of one length, in one stacked call.

    Distribution objects pass through; every other point is parsed (a
    mapping to its probs and labels) and shape-checked, and then the
    value checks of ``_validate_distributions`` run once, over all of
    them. Labelled distributions must all carry the same labels. Returns
    the (N, n) stack and the labels.
    """
    parts = [
        (p.probs, p.labels) if isinstance(p, Distribution) else _distribution_array(p)
        for p in points
    ]
    raw = [i for i, p in enumerate(points) if not isinstance(p, Distribution)]
    X = _stack_points([a for a, _ in parts], "length")
    if len(raw) == len(X):
        X = _validate_distributions(X)
    elif raw:
        X[raw] = _validate_distributions(X[raw])
    labels = [lab for _, lab in parts]
    _check_labels(labels)
    return X, labels


def random_distribution(n: int, rng: np.random.Generator) -> Distribution:
    """Uniform (flat Dirichlet) sample from the n-point simplex."""
    if n < 1:
        raise ValueError("need n >= 1")
    return as_distribution(rng.dirichlet(np.ones(n)))


def _entropies(weights: np.ndarray, a: float) -> np.ndarray:
    """Order-a entropies of nonnegative weight vectors along the last axis.

    -sum_i w_i ln w_i at a = 1, else -sum_i w_i expm1((a - 1) ln w_i) / (a - 1),
    which equals (1 - sum_i w_i^a) / (a - 1) when the weights sum to 1 but
    without the cancellation that form suffers near a = 1: each term is
    computed to full relative precision, so the result is continuous
    across a = 1 and independent of the order of the weights. Zero
    weights contribute nothing (0 ln 0 = 0).
    """
    logs = np.log(np.where(weights > 0.0, weights, 1.0))
    if a == 1.0:
        return -(weights * logs).sum(axis=-1)
    # (a - 1) ln w_i would overflow above a of about 2e305; a factor of 1e300
    # already gives expm1 = -1 exactly for every w_i < 1, as ln w_i <= -1.1e-16
    b = min(a - 1.0, 1e300)
    return -(weights * np.expm1(b * logs)).sum(axis=-1) / (a - 1.0)


def shannon_entropy(p) -> float:
    """H(P) = -sum_i p_i ln p_i, in [0, ln n]."""
    return float(_entropies(as_distribution(p).probs, 1.0))


def alpha_entropy(p, alpha: float) -> float:
    """Entropy of order alpha, (1 - sum_i p_i^alpha) / (alpha - 1).

    Evaluated as -sum_i p_i expm1((alpha - 1) ln p_i) / (alpha - 1),
    which keeps full precision near alpha = 1. The order alpha = 1 is an
    exact branch that returns the Shannon entropy (the alpha -> 1 limit),
    not a numerical approximation.
    """
    a = check_alpha(alpha)
    return float(_entropies(as_distribution(p).probs, a))


def _binary_entropies(x, a: float) -> np.ndarray:
    """Order-a entropies of the two-point distributions (x, 1 - x), x in [0, 1] of any shape."""
    x = np.asarray(x, dtype=float)
    return _entropies(np.stack([x, 1.0 - x], axis=-1), a)


def binary_alpha_entropy(p: float, alpha: float) -> float:
    """Order-alpha entropy of the two-point distribution (p, 1 - p)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary parameter must lie in [0, 1], got {p}")
    return float(_binary_entropies(p, check_alpha(alpha)))


def _kl(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """D(P||Q) along the last axis; +inf where supp(P) escapes supp(Q)."""
    support = P > 0.0
    escape = (support & (Q == 0.0)).any(axis=-1)
    support &= Q > 0.0
    logs = np.log(np.where(support, P, 1.0) / np.where(support, Q, 1.0))
    return np.where(escape, math.inf, (P * logs).sum(axis=-1))


def kl_divergence(p, q) -> float:
    """D(P||Q) = sum_i p_i ln(p_i / q_i); +inf when supp(P) escapes supp(Q)."""
    return float(_kl(*_distribution_stack((p, q))[0]))


def total_variation(p, q) -> float:
    """V(P, Q) = sum_i |p_i - q_i|, in [0, 2]."""
    P, Q = _distribution_stack((p, q))[0]
    return float(np.sum(np.abs(P - Q)))


def alpha_norm_power(p, q, alpha: float) -> float:
    """||P - Q||_alpha^alpha = sum_i |p_i - q_i|^alpha."""
    a = check_alpha(alpha)
    P, Q = _distribution_stack((p, q))[0]
    return float(np.sum(np.abs(P - Q) ** a))
