"""The stacked validators against the per-point checks they replace.

``classical._validate_distributions`` and ``quantum._validate_densities``
run every check over a whole stack of points. A point set is validated
in one such call, and ``as_distribution`` / ``validate_density`` are its
one-point case. The references below are the per-point checks, written
out one vector or matrix at a time.
"""

import numpy as np
import pytest

from jensengeo.bounds import upper_Un
from jensengeo.classical import (
    NEG_CLIP,
    SUM_TOL,
    Distribution,
    alpha_norm_power,
    as_distribution,
    kl_divergence,
    total_variation,
)
from jensengeo.geometry import divergence_matrix
from jensengeo.jensen import jd_alpha, q_redundancy, qjd_alpha, redundancy, weighted_family
from jensengeo.quantum import (
    EIG_FLOOR,
    HERM_TOL,
    TRACE_TOL,
    DensityMatrix,
    density_to_json,
    ginibre_state,
    hs_distance_sq,
    random_pure_state,
    relative_entropy,
    trace_distance,
    validate_density,
)


def reference_probs(p) -> np.ndarray:
    """The per-point distribution checks; returns the validated vector."""
    probs = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(probs)):
        raise ValueError("finite")
    if np.any(probs < -NEG_CLIP):
        raise ValueError("negative")
    probs = np.where(probs < 0.0, 0.0, probs)
    total = float(probs.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError("sum")
    return probs / total if total != 1.0 else probs


def reference_matrix(raw) -> np.ndarray:
    """The per-point state checks; returns the validated matrix."""
    A = np.asarray(raw, dtype=complex)
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("finite")
    if float(np.max(np.abs(A - A.conj().T))) > HERM_TOL:
        raise ValueError("Hermitian")
    A = (A + A.conj().T) / 2.0
    tr = float(np.trace(A).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError("trace")
    if tr != 1.0:
        A = A / tr
    if float(np.linalg.eigvalsh(A)[0]) < EIG_FLOOR:
        raise ValueError("positive semidefinite")
    return A


def noisy_distributions(rng, count: int, n: int) -> np.ndarray:
    """Dirichlet rows with float noise below SUM_TOL and some entries just below zero."""
    P = rng.dirichlet(np.ones(n), size=count)
    small = (rng.random(P.shape) < 0.2) & (P < P.max(axis=1, keepdims=True))
    P = np.where(small, 0.0, P)
    P = P / P.sum(axis=1, keepdims=True)
    P = P + 1e-11 * rng.standard_normal(P.shape) * (rng.random(P.shape) < 0.5)
    return np.where(small, -1e-13 * rng.random(P.shape), P)


def noisy_states(rng, count: int, d: int) -> np.ndarray:
    """Ginibre and pure states with asymmetry and trace error below tolerance."""
    S = np.array(
        [(ginibre_state if k % 2 else random_pure_state)(d, rng).matrix for k in range(count)]
    )
    return S + 1e-12 * rng.standard_normal(S.shape)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOnePointWrappers:
    """as_distribution and validate_density give the per-point results bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 130])
    def test_as_distribution(self, n):
        rng = np.random.default_rng(100 + n)
        for p in noisy_distributions(rng, 40, n):
            assert same_bits(as_distribution(p).probs, reference_probs(p))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
    def test_validate_density(self, d):
        rng = np.random.default_rng(200 + d)
        for A in noisy_states(rng, 40, d):
            assert same_bits(validate_density(A).matrix, reference_matrix(A))

    def test_results_do_not_alias_the_input(self):
        p = np.array([0.25, 0.75])
        A = np.eye(2, dtype=complex) / 2.0
        as_distribution(p).probs[0] = 9.0
        validate_density(A).matrix[0, 0] = 9.0
        assert p[0] == 0.25 and A[0, 0] == 0.5


class TestStackedSets:
    """A set validated in one call gives each point its per-point result."""

    def test_distribution_set_matches_per_point(self):
        rng = np.random.default_rng(7)
        P = noisy_distributions(rng, 30, 6)
        fam = weighted_family(list(P), np.full(30, 1 / 30))
        for member, p in zip(fam.members, P):
            assert same_bits(member.probs, reference_probs(p))

    def test_state_set_matches_per_point(self):
        rng = np.random.default_rng(8)
        S = noisy_states(rng, 24, 3)
        fam = weighted_family(list(S), np.full(24, 1 / 24))
        for member, A in zip(fam.members, S):
            assert same_bits(member.matrix, reference_matrix(A))


GOOD_P = [0.2, 0.3, 0.5]
BAD_POINTS_CLASSICAL = [
    ([0.2, np.nan, 0.8], "finite"),
    ([0.2, np.inf, 0.8], "finite"),
    ([0.6, -0.1, 0.5], "negative probability"),
    ([0.6, 0.6, 0.5], "sum to 1.7"),
]
GOOD_RHO = np.diag([0.5, 0.3, 0.2]).astype(complex)
BAD_POINTS_QUANTUM = [
    (np.diag([0.5, np.nan, 0.5]), "finite"),
    (np.diag([0.5, 0.5, 1j * np.inf]), "finite"),
    (GOOD_RHO + np.triu(np.full((3, 3), 1e-3), 1), "Hermitian: max asymmetry 1.000e-03"),
    (np.diag([0.5, 0.5, 0.5]), "trace is 1.5"),
    (np.diag([0.7, 0.4, -0.1]), "positive semidefinite: min eigenvalue -1.000e-01"),
]


class TestOneBadPoint:
    """One bad point among valid ones raises its check's message, wherever it sits."""

    @pytest.mark.parametrize("bad, message", BAD_POINTS_CLASSICAL)
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_distributions(self, bad, message, where):
        points = [GOOD_P] * 6
        points.insert(where, bad)
        with pytest.raises(ValueError, match=message):
            divergence_matrix(points, 1.0)
        with pytest.raises(ValueError, match=message):
            weighted_family(points, np.full(7, 1 / 7))

    @pytest.mark.parametrize("bad, message", BAD_POINTS_QUANTUM)
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_states(self, bad, message, where):
        points = [GOOD_RHO] * 6
        points.insert(where, bad)
        with pytest.raises(ValueError, match=message):
            divergence_matrix(points, 1.0)
        with pytest.raises(ValueError, match=message):
            weighted_family(points, np.full(7, 1 / 7))

    @pytest.mark.parametrize("bad, message", BAD_POINTS_CLASSICAL)
    def test_one_point_wrapper(self, bad, message):
        with pytest.raises(ValueError, match=message):
            as_distribution(bad)

    @pytest.mark.parametrize("bad, message", BAD_POINTS_QUANTUM)
    def test_one_state_wrapper(self, bad, message):
        with pytest.raises(ValueError, match=message):
            validate_density(bad)

    def test_shape_errors_come_from_the_point(self):
        with pytest.raises(ValueError, match="1-D"):
            divergence_matrix([GOOD_P, GOOD_P, [[0.5, 0.5]]], 1.0)
        with pytest.raises(ValueError, match="square"):
            divergence_matrix([GOOD_RHO, np.zeros((3, 2))], 1.0)
        with pytest.raises(ValueError, match="labels and probs"):
            divergence_matrix([GOOD_P, {"probs": GOOD_P, "labels": "ab"}], 1.0)


class TestMixedInputForms:
    """Raw arrays, mappings and validated objects in one set give the all-raw matrix."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_distributions(self, alpha):
        rng = np.random.default_rng(21)
        P = noisy_distributions(rng, 9, 4)
        labels = ["a", "b", "c", "d"]
        mixed = [
            P[0].tolist(),
            {"probs": P[1].tolist(), "labels": labels},
            as_distribution(P[2]),
            P[3],
            as_distribution({"probs": P[4], "labels": labels}),
            {"probs": P[5].tolist()},
            P[6].tolist(),
            as_distribution(P[7]),
            P[8],
        ]
        expected = divergence_matrix(list(P), alpha).d
        assert same_bits(divergence_matrix(mixed, alpha).d, expected)
        members = weighted_family(mixed, np.full(9, 1 / 9)).members
        assert all(isinstance(m, Distribution) for m in members)
        assert members[2] is mixed[2] and members[1].labels == tuple(labels)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_states(self, alpha):
        rng = np.random.default_rng(22)
        S = [ginibre_state(3, rng).matrix for _ in range(7)]
        mixed = [
            S[0],
            density_to_json(S[1]),
            validate_density(S[2]),
            S[3].tolist(),
            validate_density(S[4]),
            density_to_json(S[5]),
            S[6],
        ]
        # the wire format rounds nothing: its floats are the matrix entries
        expected = divergence_matrix(S, alpha).d
        assert same_bits(divergence_matrix(mixed, alpha).d, expected)
        members = weighted_family(mixed, np.full(7, 1 / 7)).members
        assert all(isinstance(m, DensityMatrix) for m in members)
        assert members[2] is mixed[2]

    def test_mixed_sizes_are_refused_across_forms(self):
        with pytest.raises(ValueError, match=r"mixed lengths: \[2, 3\]"):
            divergence_matrix([as_distribution([0.5, 0.5]), {"probs": GOOD_P}], 1.0)
        with pytest.raises(ValueError, match=r"mixed dimensions: \[2, 3\]"):
            divergence_matrix([validate_density(np.eye(2) / 2.0), density_to_json(GOOD_RHO)], 1.0)


# the pair functions outside jensen.py; redundancy and q_redundancy take the
# first point as a one-member family and the second as its reference
CLASSICAL_PAIRS = {
    "kl_divergence": kl_divergence,
    "total_variation": total_variation,
    "alpha_norm_power": lambda p, q: alpha_norm_power(p, q, 1.5),
    "upper_Un": lambda p, q: upper_Un(p, q, 0.5),
    "redundancy": lambda p, q: redundancy(weighted_family([p], [1.0]), q),
}
QUANTUM_PAIRS = {
    "relative_entropy": relative_entropy,
    "trace_distance": trace_distance,
    "hs_distance_sq": hs_distance_sq,
    "q_redundancy": lambda r, s: q_redundancy(weighted_family([r], [1.0]), s),
}
LABELS = ["a", "b", "c", "d"]


def distribution_forms(p) -> list:
    return [
        p,
        p.tolist(),
        {"probs": p.tolist()},
        {"probs": p.tolist(), "labels": LABELS},
        as_distribution(p),
        as_distribution({"probs": p, "labels": LABELS}),
    ]


def state_forms(A) -> list:
    return [A, A.tolist(), density_to_json(A), validate_density(A)]


def error_text(f, *args) -> str:
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


class TestPairFunctions:
    """Every pair function validates its pair in one stacked call, as jd_alpha does."""

    @pytest.mark.parametrize("name", CLASSICAL_PAIRS)
    def test_distribution_forms_agree(self, name):
        f = CLASSICAL_PAIRS[name]
        rng = np.random.default_rng(31)
        for p, q in noisy_distributions(rng, 12, 4).reshape(6, 2, 4):
            expected = np.float64(f(p, q))
            for fp, fq in zip(distribution_forms(p), distribution_forms(q)[::-1]):
                assert same_bits(np.float64(f(fp, fq)), expected)

    @pytest.mark.parametrize("name", QUANTUM_PAIRS)
    def test_state_forms_agree(self, name):
        f = QUANTUM_PAIRS[name]
        rng = np.random.default_rng(32)
        S = noisy_states(rng, 12, 3)
        for A, B in zip(S[0::2], S[1::2]):
            # the wire format holds the validated entries, so every form starts from them
            A, B = validate_density(A).matrix, validate_density(B).matrix
            expected = np.float64(f(A, B))
            for fa, fb in zip(state_forms(A), state_forms(B)[::-1]):
                assert same_bits(np.float64(f(fa, fb)), expected)

    @pytest.mark.parametrize("name", CLASSICAL_PAIRS)
    def test_distribution_errors_match_jd_alpha(self, name):
        f = CLASSICAL_PAIRS[name]
        labelled = {"probs": GOOD_P, "labels": ["x", "y", "z"]}
        cases = [(bad, GOOD_P) for bad, _ in BAD_POINTS_CLASSICAL]
        cases += [(GOOD_P, bad) for bad, _ in BAD_POINTS_CLASSICAL]
        cases += [
            ([0.5, 0.5], GOOD_P),
            (GOOD_P, [0.5, 0.5]),
            # a pair with several faults reports the size mismatch first
            ([0.5, 0.5], [0.6, 0.6, 0.5]),
            (labelled, {"probs": GOOD_P, "labels": ["a", "b", "c"]}),
            (as_distribution(labelled), {"probs": GOOD_P, "labels": ["a", "b", "c"]}),
        ]
        for p, q in cases:
            assert error_text(f, p, q) == error_text(jd_alpha, p, q)
        assert error_text(f, [0.5, 0.5], GOOD_P) == (
            "length mismatch: points of mixed lengths: [2, 3]"
        )

    @pytest.mark.parametrize("name", QUANTUM_PAIRS)
    def test_state_errors_match_qjd_alpha(self, name):
        f = QUANTUM_PAIRS[name]
        cases = [(bad, GOOD_RHO) for bad, _ in BAD_POINTS_QUANTUM]
        cases += [(GOOD_RHO, bad) for bad, _ in BAD_POINTS_QUANTUM]
        qubit = validate_density(np.eye(2) / 2.0)
        cases += [(qubit, GOOD_RHO), (density_to_json(GOOD_RHO), np.eye(2) / 2.0)]
        for r, s in cases:
            assert error_text(f, r, s) == error_text(qjd_alpha, r, s)
        assert error_text(f, qubit, GOOD_RHO) == (
            "dimension mismatch: points of mixed dimensions: [2, 3]"
        )
