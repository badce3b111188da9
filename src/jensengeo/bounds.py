"""Tight bounds relating Jensen divergences to total variation and trace
distance, and the joint-range diagram of the two quantities.

With V = sum |p_i - q_i| in [0, 2], s_a(p) the binary order-a entropy and
n the alphabet size:

  lower    L(V)   = s_a(1/2) - s_a(1/2 + V/4)
  lower    B_n(V) = (a V^2 / 32) (1/floor(n/2) + 1/ceil(n/2))    (n >= 3)
  upper    U_n    = (1/(a-1)) (1/2 - 2^-a) ||P - Q||_a^a         (n >= 3)
  upper    U_2    = s_a(V/4) - s_a(V/2) / 2                      (n = 2)

L is attained and valid on two-letter pairs for every order in (0, 2],
and valid for every alphabet at order 1, but for n >= 3 above order 1
it can exceed the divergence (JD_2 of (1/2,1/2,0,0) vs (0,0,1/2,1/2) is
1/4 while L(2) = 1/2). Below order 1 no counterexample is known, but
none is proven either, so the reports give B_n there too. B_n is the
bound proven for n >= 3 and orders in (0, 2]: f_a(x) = (x - x^a)/(a - 1)
has -f_a'' = a x^(a-2) >= a on (0, 1], so f_a(x) + (a/2) x^2 is concave,
which gives JD_a >= (a/8) ||P - Q||_2^2; a zero-sum difference with
||P - Q||_1 = V has ||P - Q||_2^2 >= (V^2/4)(1/floor(n/2) + 1/ceil(n/2)).
B_n is attained at order 2 (it equals 1/4 on the pair above). Beyond
order 2 no distance lower bound is proven (L already fails for two
letters at order 2.5), and the reports give the trivial bound 0. The
upper bounds hold for every alphabet and order in (0, 2].

The quantum analogue replaces V by the trace distance T and n by the
dimension d. The same concavity argument applies to the trace function
Tr f_a(rho) + (a/2) Tr rho^2, and the eigenvalues of the traceless
rho1 - rho2 give the same bound on ||rho1 - rho2||_2^2, so B_d holds for
d >= 3; L holds for qubits at orders in (0, 2] and for every dimension
at order 1, and fails for d >= 3 above order 1. The upper bound
(ln 2 / 2) T holds only for orders in [1, 2]; random qubit pairs break
it at order 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classical import _binary_entropies, _distribution_stack, check_alpha
from .jensen import _EVEN, _divergence, _gaps
from .quantum import _density_stack

__all__ = [
    "BoundReport",
    "lower_L",
    "upper_Un",
    "upper_U2",
    "lower_witness_pair",
    "upper_witness_pair",
    "bound_report",
    "q_bound_report",
    "ChainBounds",
    "chain_check",
    "DiagramPoints",
    "upper_curve_value",
    "homotopy_pair",
    "diagram",
    "diagram_to_csv",
]

LN2 = math.log(2.0)
# cap on grid^2 * n, the entries of each stacked array of diagram samples
DIAGRAM_MAX_ENTRIES = 2_000_000


@dataclass(frozen=True)
class BoundReport:
    """A divergence value sandwiched between its distance-based bounds.

    ``lower`` is a proven bound at every order. ``upper`` is one for
    distributions at orders in (0, 2] and for states at orders in [1, 2].
    """

    lower: float
    value: float
    upper: float
    v: float          # total variation, or trace distance for states
    alpha: float
    upper_kind: str   # "two_letter" | "alpha_norm" | "trace_norm"
    lower_witness: tuple | None = None
    upper_witness: tuple | None = None


def _check_v(v: float) -> float:
    v = float(v)
    if not -1e-12 <= v <= 2.0 + 1e-12:
        raise ValueError(f"total variation must lie in [0, 2], got {v}")
    return min(max(v, 0.0), 2.0)


def _curves(v, a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """L and ``upper_curve_value`` at validated distances v of any shape.

    s_a(1/2), s_a(1/2 + v/4), s_a(v/4) and s_a(v/2) come from one stacked
    entropy call; the scalar bounds and ``diagram``'s curves share it.
    """
    v = np.asarray(v, dtype=float)
    x = np.stack([np.full_like(v, 0.5), 0.5 + v / 4.0, v / 4.0, v / 2.0])
    s_half, s_lower, s_quarter, s_upper = _binary_entropies(x, a)
    lower = s_half - s_lower
    if n == 2:
        upper = s_quarter - s_upper / 2.0
    else:
        # U_n on the witness pair, whose ||P - Q||_a^a is 2 (v/2)^a
        upper = _un_coefficient(a) * (2.0 * (v / 2.0) ** a)
    return lower, upper


def lower_L(v: float, alpha: float) -> float:
    """s_a(1/2) - s_a(1/2 + v/4), attained by the pair returned by ``lower_witness_pair``."""
    return float(_curves(_check_v(v), check_alpha(alpha), 2)[0])


def _distance(X: np.ndarray) -> float:
    """V of a validated (2, n) pair, or T of a validated (2, d, d) pair."""
    diff = X[0] - X[1]
    if X.ndim == 3:
        diff = np.linalg.eigvalsh(diff)
    return float(np.sum(np.abs(diff)))


def _un_coefficient(a: float) -> float:
    """(1/2 - 2^-a) / (a - 1), without its cancellation near a = 1, and ln 2 / 2 at a = 1."""
    if a == 1.0:
        return LN2 / 2.0
    return -0.5 * math.expm1(-(a - 1.0) * LN2) / (a - 1.0)


def _upper_Un(X: np.ndarray, a: float) -> float:
    """``upper_Un`` of a validated (2, n) pair."""
    return _un_coefficient(a) * float(np.sum(np.abs(X[0] - X[1]) ** a))


def upper_Un(p, q, alpha: float) -> float:
    """(1/(a-1)) (1/2 - 2^-a) ||P - Q||_a^a, with the order-1 limit (ln 2 / 2) V."""
    a = check_alpha(alpha)
    return _upper_Un(_distribution_stack((p, q))[0], a)


def upper_U2(v: float, alpha: float) -> float:
    """Two-letter tight upper bound s_a(v/4) - s_a(v/2) / 2."""
    return float(_curves(_check_v(v), check_alpha(alpha), 2)[1])


def _witness_pairs(v, n: int) -> np.ndarray:
    """Both witness pairs at validated distances v of any shape, as one array.

    Returns W of shape (2,) + v.shape + (2, n): W[0] holds the pairs (P, Q)
    of ``lower_witness_pair`` and W[1] those of ``upper_witness_pair``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    v = np.asarray(v, dtype=float)
    W = np.zeros((2,) + v.shape + (2, n))
    lower, upper = W
    lower[..., 0, 0] = lower[..., 1, 1] = 0.5 + v / 4.0
    lower[..., 0, 1] = lower[..., 1, 0] = 0.5 - v / 4.0
    if n == 2:
        upper[..., 0, 0] = v / 2.0
        upper[..., 0, 1] = 1.0 - v / 2.0
        upper[..., 1, 1] = 1.0
    else:
        upper[..., 0, 0] = upper[..., 1, 0] = 1.0 - v / 2.0
        upper[..., 0, 1] = upper[..., 1, 2] = v / 2.0
    return W


def lower_witness_pair(v: float, n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The swapped near-uniform pair attaining the lower bound at total variation v."""
    return tuple(_witness_pairs(_check_v(v), n)[0])


def upper_witness_pair(v: float, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """The attaining pair for the upper bound at total variation v.

    For n >= 3 the disjoint-support pair (1 - v/2, v/2, 0, ...) vs
    (1 - v/2, 0, v/2, ...); for n = 2 the extreme pair (v/2, 1 - v/2)
    vs (0, 1).
    """
    return tuple(_witness_pairs(_check_v(v), n)[1])


def _report(X: np.ndarray, a: float, w: np.ndarray | None = None) -> BoundReport:
    """The report of a validated (2, n) pair, or of a (2, d, d) pair with its eigenvalues w.

    ``lower`` is L, the value of ``lower_L``, at order 1 and for n <= 2
    at orders in (0, 2]; B_n for n >= 3 at the other orders in (0, 2];
    0 beyond order 2, where no distance bound is proven. See the module
    docstring for the proofs.
    """
    quantum = X.ndim == 3
    n = X.shape[1]
    v = _distance(X)
    is_L = a == 1.0 or (n <= 2 and a <= 2.0)
    if is_L or (n == 2 and not quantum):  # L and U_2 from one stacked entropy call
        L, U2 = map(float, _curves(_check_v(v), a, 2))
    if is_L:
        lower = L
    elif a > 2.0:
        lower = 0.0
    else:
        lower = (a * v**2 / 32.0) * (1.0 / (n // 2) + 1.0 / ((n + 1) // 2))
    value = _divergence(X, _EVEN, a, w).value
    if quantum:
        return BoundReport(lower, value, (LN2 / 2.0) * v, v, a, "trace_norm")
    lower_witness, upper_witness = map(tuple, _witness_pairs(_check_v(v), n))
    lower_witness = lower_witness if is_L else None
    upper, kind = (U2, "two_letter") if n == 2 else (_upper_Un(X, a), "alpha_norm")
    return BoundReport(lower, value, upper, v, a, kind, lower_witness, upper_witness)


def bound_report(p, q, alpha: float) -> BoundReport:
    """Sandwich a classical Jensen divergence between its proven lower
    bound and the n-appropriate U.

    The ``lower`` entry is L(V) for two letters at orders in (0, 2] and
    for any alphabet at order 1, B_n(V) for n >= 3 letters at other
    orders in (0, 2], and 0 beyond order 2 (see the module docstring).
    ``lower_witness`` is the pair attaining L, and None when ``lower``
    is not L. The upper bound holds for orders in (0, 2].
    """
    a = check_alpha(alpha)
    return _report(_distribution_stack((p, q))[0], a)


def q_bound_report(rho1, rho2, alpha: float) -> BoundReport:
    """Sandwich a quantum Jensen divergence between trace-distance bounds.

    With T = ||rho1 - rho2||_1 in [0, 2] and d the dimension, ``lower``
    is L(T) = s_a(1/2) - s_a(1/2 + T/4) for qubits at orders in (0, 2]
    and for any dimension at order 1, B_d(T) for d >= 3 at other orders
    in (0, 2], and 0 beyond order 2 (see the module docstring). ``upper``
    is (ln 2 / 2) T, a bound only for orders in [1, 2].
    """
    a = check_alpha(alpha)
    X, w = _density_stack((rho1, rho2))
    return _report(X, a, w)


class ChainBounds(NamedTuple):
    """The distance-divergence inequality chain evaluated on one pair.

    v_sq_over_8 <= alpha_v_sq_over_8 always (order >= 1), and
    jd <= alpha_norm_upper <= tv_upper for orders in [1, 2] on any
    alphabet. The link v_sq_over_8 <= jd additionally requires a
    two-letter pair or order 1; alpha_v_sq_over_8 <= jd holds only at
    order 1 under this total-variation normalization.
    """

    v_sq_over_8: float
    alpha_v_sq_over_8: float
    jd: float
    alpha_norm_upper: float
    tv_upper: float


def chain_check(p, q, alpha: float) -> ChainBounds:
    """Evaluate V^2/8, a V^2/8, JD_a, the alpha-norm upper bound, and (ln 2 / 2) V."""
    a = check_alpha(alpha)
    if not 1.0 <= a <= 2.0:
        raise ValueError(f"chain is asserted for orders in [1, 2], got {a}")
    X = _distribution_stack((p, q))[0]
    v = _distance(X)
    return ChainBounds(
        v_sq_over_8=v**2 / 8.0,
        alpha_v_sq_over_8=a * v**2 / 8.0,
        jd=_divergence(X, _EVEN, a).value,
        alpha_norm_upper=_upper_Un(X, a),
        tv_upper=(LN2 / 2.0) * v,
    )


@dataclass(frozen=True)
class DiagramPoints:
    """Joint-range diagram data: bounding curves and interior homotopy samples.

    ``curve_lower`` and ``curve_upper`` are (v, jd) pairs on a v-grid;
    ``homotopy_samples`` are (t, v, jd) triples, where v is the actual
    total variation of the deformed pair (it dips below the grid
    parameter for interior t, sweeping the region's interior).
    """

    curve_lower: list
    curve_upper: list
    homotopy_samples: list
    alpha: float
    n: int


def upper_curve_value(v: float, alpha: float, n: int) -> float:
    """The upper boundary of the joint range at total variation v.

    For n = 2 this is U_2(v); for n >= 3 it is the alpha-norm bound
    evaluated on its disjoint-support attaining pair,
    ((v/2)^a - 2 (v/4)^a) / (a - 1), with order-1 limit (ln 2 / 2) v.
    """
    a = check_alpha(alpha)
    v = _check_v(v)
    if n < 2:
        raise ValueError("need n >= 2")
    return float(_curves(v, a, n)[1])


def _homotopy(t, v, n: int) -> np.ndarray:
    """``homotopy_pair`` at every validated t and v of broadcastable shapes.

    Returns the deformed pairs (P, Q) as one array of shape
    broadcast(t.shape, v.shape) + (2, n).
    """
    lower, upper = _witness_pairs(v, n)
    t = np.asarray(t, dtype=float)[..., None, None]
    return (1.0 - t) * lower + t * upper


def homotopy_pair(t: float, v: float, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Convex deformation from the lower-curve pair (t = 0) to the upper-curve pair (t = 1)."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"need t in [0, 1], got {t}")
    return tuple(_homotopy(t, _check_v(v), n))


def diagram(alpha: float, n: int, grid: int) -> DiagramPoints:
    """Sample the joint range of total variation and order-alpha divergence.

    Emits both bounding curves on a ``grid``-point v-grid over [0, 2]
    and a ``grid`` x ``grid`` family of homotopy samples whose (v, jd)
    points fill the region between the curves. The emitted lower curve
    is L. It bounds every sample for n = 2 at orders in (0, 2] and for
    any n at order 1, the cases the module docstring proves. Elsewhere
    samples can dip below it: for n >= 3 above order 1 (below it none is
    known to, though L is unproven), and for n = 2 at orders in (2, 3)
    (at grid 20, 342 of the 400 samples at orders 2.2, 2.5 and 2.8).

    The samples agree with ``total_variation`` and ``jd_alpha`` of the
    matching ``homotopy_pair`` to 1e-15, not bit for bit: the kernel
    reads the raw deformed rows, whose sums can miss 1 by an ulp, while
    the pair calls renormalize them in validation (at orders 0.5 to 2.5,
    n = 2, 3, 5 and grid 7, 56 of 735 samples differ in the last bits).
    """
    a = check_alpha(alpha)
    if n < 2:
        raise ValueError("need n >= 2")
    if grid < 2:
        raise ValueError("need grid >= 2")
    if grid * grid * n > DIAGRAM_MAX_ENTRIES:
        raise ValueError(
            f"grid^2 * n = {grid * grid * n} exceeds the cap of {DIAGRAM_MAX_ENTRIES} entries"
        )
    vs = np.linspace(0.0, 2.0, grid)
    ts = np.linspace(0.0, 1.0, grid)
    lower, upper = _curves(vs, a, n)
    curve_lower = list(zip(vs.tolist(), lower.tolist()))
    curve_upper = list(zip(vs.tolist(), upper.tolist()))
    # the homotopy_pair samples of every (t, v), t major, pair by pair
    X = _homotopy(ts[:, None], vs, n).reshape(-1, n)
    pairs = np.arange(len(X)).reshape(-1, 2)
    values = _gaps(X, pairs, np.full(pairs.shape, 0.5), a)[0]
    v_actual = np.sum(np.abs(X[0::2] - X[1::2]), axis=1)
    samples = list(zip(np.repeat(ts, grid).tolist(), v_actual.tolist(), values.tolist()))
    return DiagramPoints(
        curve_lower=curve_lower,
        curve_upper=curve_upper,
        homotopy_samples=samples,
        alpha=a,
        n=n,
    )


def diagram_to_csv(points: DiagramPoints) -> str:
    """CSV rows "curve,t,v,jd": the lower curve at t=0, the upper at t=1, homotopy rows between."""
    lines = ["curve,t,v,jd"]
    for v, jd in points.curve_lower:
        lines.append(f"lower,{0.0!r},{v!r},{jd!r}")
    for v, jd in points.curve_upper:
        lines.append(f"upper,{1.0!r},{v!r},{jd!r}")
    for t, v, jd in points.homotopy_samples:
        lines.append(f"homotopy,{t!r},{v!r},{jd!r}")
    return "\n".join(lines) + "\n"
