import math

import numpy as np
import pytest

from jensengeo.classical import (
    alpha_norm_power,
    binary_alpha_entropy,
    kl_divergence,
    random_distribution,
    shannon_entropy,
)
from jensengeo import jensen
from jensengeo.bounds import q_bound_report
from jensengeo.geometry import divergence_matrix
from jensengeo.jensen import (
    compensation_residual,
    donald_residual,
    family_from_json,
    family_to_json,
    holevo_bound,
    jd_alpha,
    jd_alpha_general,
    jd_general,
    mixture,
    q_redundancy,
    qjd_alpha,
    qjd_alpha_general,
    qjd_general,
    redundancy,
    weighted_family,
)
from jensengeo.quantum import (
    alpha_entropy_q,
    ginibre_state,
    hs_distance_sq,
    is_pure,
    pure_overlap_eigenvalues,
    random_pure_state,
    random_unitary,
    relative_entropy,
    spectrum,
    validate_density,
    von_neumann_entropy,
)

LN2 = math.log(2.0)
PURE0 = np.diag([1.0, 0.0]).astype(complex)
PURE1 = np.diag([0.0, 1.0]).astype(complex)

# S_2.5(1/4,3/4) - S_2.5(1/2,1/2)/2, 40-digit evaluation
JD25_SKEW = 0.1055916037785934
# H(1/3*(1/2,1/2) + 2/3*(1/4,3/4)) - [H(1/2,1/2)/3 + 2 H(1/4,3/4)/3]
JD_THIRDS = 0.030575011695625482


def random_family(rng, k=None, n=None):
    k = int(rng.integers(2, 5)) if k is None else k
    n = int(rng.integers(2, 6)) if n is None else n
    members = [random_distribution(n, rng) for _ in range(k)]
    return weighted_family(members, rng.dirichlet(np.ones(k)))


def random_qubit_family(rng, k=None):
    k = int(rng.integers(2, 4)) if k is None else k
    members = [ginibre_state(2, rng) for _ in range(k)]
    return weighted_family(members, rng.dirichlet(np.ones(k)))


class TestWeightedFamily:
    def test_classical_kind(self):
        fam = weighted_family([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5])
        assert fam.kind == "classical" and len(fam) == 2

    def test_quantum_kind(self):
        fam = weighted_family([PURE0, PURE1], [0.5, 0.5])
        assert fam.kind == "quantum"

    def test_rejects_weight_mismatch(self):
        with pytest.raises(ValueError):
            weighted_family([[0.5, 0.5]], [0.5, 0.5])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            weighted_family([[0.5, 0.5], [0.2, 0.3, 0.5]], [0.5, 0.5])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            weighted_family([PURE0, np.eye(3) / 3.0], [0.5, 0.5])

    def test_rejects_an_empty_family(self):
        with pytest.raises(ValueError, match="at least one member"):
            weighted_family([], [])

    def test_json_round_trip_of_states(self):
        rng = np.random.default_rng(21)
        fam = weighted_family([ginibre_state(3, rng), random_pure_state(3, rng)], [0.25, 0.75])
        again = family_from_json(family_to_json(fam))
        assert again.kind == "quantum"
        assert np.array_equal(again.weights.probs, fam.weights.probs)
        # validating the wire entries again can move an entry by an ulp
        for m, n in zip(again.members, fam.members):
            assert np.max(np.abs(m.matrix - n.matrix)) <= 4.5e-16

    def test_json_round_trip(self):
        fam = weighted_family([[0.5, 0.5], [0.25, 0.75]], [0.3, 0.7])
        again = family_from_json(family_to_json(fam))
        assert again.kind == "classical"
        assert np.allclose(again.weights.probs, fam.weights.probs)

    def test_json_round_trip_keeps_labels(self):
        ab = {"probs": [0.5, 0.5], "labels": ["a", "b"]}
        fam = weighted_family([ab, [0.25, 0.75], ab], [0.2, 0.3, 0.5])
        wire = family_to_json(fam)
        assert wire["members"][0] == {"probs": [0.5, 0.5], "labels": ["a", "b"]}
        assert wire["members"][1] == [0.25, 0.75]
        again = family_from_json(wire)
        assert [m.labels for m in again.members] == [("a", "b"), None, ("a", "b")]
        assert family_to_json(again) == wire
        # the labels survive the trip, so a differently labelled partner is still refused
        ba = {"probs": [0.25, 0.75], "labels": ["b", "a"]}
        for call in (
            lambda: weighted_family(list(again.members) + [ba], [0.25] * 4),
            lambda: redundancy(again, ba),
        ):
            with pytest.raises(ValueError, match="different labels"):
                call()

    def test_mixture(self):
        fam = weighted_family([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.75])
        assert np.allclose(mixture(fam).probs, [0.25, 0.75])

    def test_rejects_different_labels(self):
        ab = {"probs": [0.5, 0.5], "labels": ["a", "b"]}
        ba = {"probs": [0.25, 0.75], "labels": ["b", "a"]}
        for call in (
            lambda: jd_alpha(ab, ba, 1.5),
            lambda: weighted_family([ab, ab, ba], [0.2, 0.3, 0.5]),
            lambda: family_from_json({"weights": [0.5, 0.5], "members": [ab, ba]}),
            lambda: divergence_matrix([ab, ab, ba], 1.0),
            lambda: redundancy(weighted_family([ab], [1.0]), ba),
        ):
            with pytest.raises(ValueError, match="different labels"):
                call()

    def test_same_or_missing_labels_pair_by_position(self):
        ab = {"probs": [1.0, 0.0], "labels": ["a", "b"]}
        ab2 = {"probs": [0.0, 1.0], "labels": ["a", "b"]}
        assert jd_alpha(ab, ab2).value == pytest.approx(LN2, abs=1e-15)
        assert jd_alpha(ab, [0.0, 1.0]).value == pytest.approx(LN2, abs=1e-15)
        D = divergence_matrix([ab, [0.0, 1.0], ab2], 1.0).d
        assert D[0, 1] == D[0, 2] == pytest.approx(LN2, abs=1e-15)

    def test_json_rejects_members_that_are_not_a_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            family_from_json({"weights": [1], "members": 5})


class TestDualCrossCheck:
    """The order-1 cross-check against the averaged relative entropy fires."""

    def test_residual_is_reported_within_tolerance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(k))
            fam = weighted_family([random_distribution(4, rng) for _ in range(k)], w)
            qfam = weighted_family([ginibre_state(3, rng) for _ in range(k)], w)
            p, q = random_distribution(5, rng), random_distribution(5, rng)
            r1, r2 = ginibre_state(2, rng), random_pure_state(2, rng)
            for res, tol in (
                (jd_general(fam), jensen.DUAL_TOL_CLASSICAL),
                (jd_alpha(p, q), jensen.DUAL_TOL_CLASSICAL),
                (qjd_general(qfam), jensen.DUAL_TOL_QUANTUM),
                (qjd_alpha(r1, r2), jensen.DUAL_TOL_QUANTUM),
            ):
                assert 0.0 <= res.dual_residual <= tol
            # there is no dual form to compare with away from order 1
            assert jd_alpha_general(fam, 1.5).dual_residual is None
            assert qjd_alpha(r1, r2, 0.5).dual_residual is None

    def test_residual_is_the_gap_between_the_forms(self):
        fam = weighted_family(*self.FAMILY)
        avg = sum(
            w * kl_divergence(m, mixture(fam)) for w, m in zip(fam.weights.probs, fam.members)
        )
        res = jd_general(fam)
        assert res.dual_residual == pytest.approx(abs(res.value - avg), abs=1e-15)

    FAMILY = ([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]], [0.2, 0.3, 0.5])

    def test_classical(self, monkeypatch):
        fam = weighted_family(*self.FAMILY)
        monkeypatch.setattr(jensen, "DUAL_TOL_CLASSICAL", -1.0)
        with pytest.raises(ArithmeticError, match="disagree"):
            jd_general(fam)
        with pytest.raises(ArithmeticError):
            divergence_matrix(fam.members, 1.0)
        # there is no averaged-relative-entropy identity away from order 1
        assert jd_alpha_general(fam, 1.5).value > 0.0

    def test_quantum(self, monkeypatch):
        rng = np.random.default_rng(3)
        fam = weighted_family([ginibre_state(3, rng) for _ in range(3)], [0.2, 0.3, 0.5])
        monkeypatch.setattr(jensen, "DUAL_TOL_QUANTUM", -1.0)
        with pytest.raises(ArithmeticError, match="disagree"):
            qjd_general(fam)
        with pytest.raises(ArithmeticError):
            divergence_matrix(fam.members, 1.0)
        assert qjd_alpha_general(fam, 1.5).value > 0.0

    def test_kernel_keeps_the_mixture_psd_floor(self):
        # valid members always mix to a state; the floor guards the kernel itself, here on the
        # closed-form lambda_- of a qubit mixture
        X = np.array([np.diag([1.5, -0.5]), np.diag([1.5, -0.5])], dtype=complex)
        wx = np.array([[-0.5, 1.5], [-0.5, 1.5]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            jensen._gaps(X, np.array([[0, 1]]), np.full((1, 2), 0.5), 1.5, wx)

    def test_kernel_keeps_the_psd_floor_on_eigensolver_spectra(self):
        # two non-pure 3x3 points: their mixture goes through eigvalsh, and the floor sees it
        X = np.array([np.diag([1.5, -0.25, -0.25])] * 2, dtype=complex)
        wx = np.array([[-0.25, -0.25, 1.5]] * 2)
        with pytest.raises(ValueError, match="positive semidefinite"):
            jensen._gaps(X, np.array([[0, 1]]), np.full((1, 2), 0.5), 1.5, wx)

    def test_passes_at_default_tolerances(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            states = [ginibre_state(d, rng) for _ in range(4)] + [random_pure_state(d, rng)]
            fam = weighted_family(states, rng.dirichlet(np.ones(5)))
            assert qjd_general(fam).value > 0.0


# a state whose second eigenvalue eps leaves the even mixture with |0><0| an eigenvalue eps / 2
# at or below SUPPORT_TOL (1e-10) while the state puts more than 1e-10 there
NEAR_NULL = [1e-10, 1.5e-10, 2e-10, 1e-9]


def near_null_pair(eps: float) -> tuple[np.ndarray, np.ndarray]:
    return np.diag([1.0 - eps, eps]).astype(complex), PURE0


class TestCheckReadsTheMixtureByTheGapRule:
    """A mixture supports every member it holds (m >= w_j x_j), so the order-1 cross-check counts
    every mixture entry or eigenvalue above 0, as the gap does, and never reads +inf: a mixture
    entry that underflows to 0, or an eigenvalue at or below SUPPORT_TOL, is not an escape."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_subnormal_entry_that_mixes_to_zero(self, alpha):
        # 5e-324 / 2 rounds to 0, the mixture's entry
        res = jd_alpha([0.0, 0.0, 1.0], [0.0, 5e-324, 1.0], alpha)
        assert res.value == 0.0
        assert res.dual_residual == (0.0 if alpha == 1.0 else None)

    @pytest.mark.parametrize("eps", NEAR_NULL)
    def test_near_null_mixture_eigenvalue(self, eps):
        rho, sigma = near_null_pair(eps)
        res = qjd_alpha(rho, sigma, 1.0)
        # a commuting pair is the pair of its diagonals
        assert res.value == pytest.approx(jd_alpha([1.0 - eps, eps], [1.0, 0.0]).value, rel=1e-12)
        assert 0.0 <= res.dual_residual <= jensen.DUAL_TOL_QUANTUM
        U = random_unitary(2, np.random.default_rng(3))
        rotated = qjd_alpha(U @ rho @ U.conj().T, U @ sigma @ U.conj().T, 1.0)
        assert abs(rotated.value - res.value) <= 1e-14
        assert 0.0 <= rotated.dual_residual <= jensen.DUAL_TOL_QUANTUM

    def test_near_null_value(self):
        assert qjd_alpha(*near_null_pair(2e-10), 1.0).value == 6.931471806099515e-11

    def test_near_null_pair_in_the_matrix_and_the_bound_report(self):
        rho, sigma = near_null_pair(2e-10)
        value = qjd_alpha(rho, sigma, 1.0).value
        assert divergence_matrix([rho, sigma], 1.0).d[0, 1] == value
        assert q_bound_report(rho, sigma, 1.0).value == value

    def test_small_weight_family(self):
        # the mixture's small eigenvalue is 1e-11, below SUPPORT_TOL; the member's is 1e-8
        fam = weighted_family([np.diag([1.0 - 1e-8, 1e-8]), PURE0], [1e-3, 1.0 - 1e-3])
        assert holevo_bound(fam) == 6.907755361692755e-11
        assert donald_residual(fam, np.eye(2) / 2.0) <= 1e-12

    def test_mixture_entry_that_underflows_under_a_small_weight(self):
        # 1e-300 * 1e-30 underflows to 0 in the mixture, and the true value rounds to 0
        fam = weighted_family([[1e-30, 1.0 - 1e-30], [0.0, 1.0]], [1e-300, 1.0 - 1e-300])
        res = jd_general(fam)
        assert res.value == 0.0 and res.dual_residual == 0.0


class TestJDGeneral:
    def test_equal_members(self):
        fam = weighted_family([[0.3, 0.7], [0.3, 0.7]], [0.5, 0.5])
        assert jd_general(fam).value == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_even(self):
        fam = weighted_family([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert jd_general(fam).value == pytest.approx(LN2, abs=1e-15)

    def test_thirds_example(self):
        fam = weighted_family([[0.5, 0.5], [0.25, 0.75]], [1 / 3, 2 / 3])
        res = jd_general(fam)
        assert res.value == pytest.approx(JD_THIRDS, abs=1e-14)
        assert res.via == "entropy_difference"

    def test_dual_formula_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            fam = random_family(rng)
            mix = mixture(fam)
            diff = shannon_entropy(mix) - sum(
                pi * shannon_entropy(m) for pi, m in zip(fam.weights.probs, fam.members)
            )
            assert jd_general(fam).value == pytest.approx(diff, abs=1e-12)


class TestJDAlpha:
    def test_identical(self):
        assert jd_alpha([0.4, 0.6], [0.4, 0.6], 1.7).value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_identical_gives_positive_zero(self, alpha):
        # the gap of equal points is 0.0, never -0.0 or float noise below zero
        for value in (
            jd_alpha([1.0, 0.0], [1.0, 0.0], alpha).value,
            qjd_alpha(PURE0, PURE0, alpha).value,
        ):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5, 3.5])
    def test_antipodal_is_binary_entropy(self, alpha):
        assert jd_alpha([0.0, 1.0], [1.0, 0.0], alpha).value == pytest.approx(
            binary_alpha_entropy(0.5, alpha), abs=1e-15
        )

    def test_skew_oracle(self):
        assert jd_alpha([0.0, 1.0], [0.5, 0.5], 2.5).value == pytest.approx(
            JD25_SKEW, abs=1e-14
        )

    def test_alpha2_even_mixture(self):
        fam = weighted_family([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        assert jd_alpha_general(fam, 2.0).value == pytest.approx(0.5, abs=1e-15)

    def test_alpha_one_dispatches(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, q = random_distribution(3, rng), random_distribution(3, rng)
            assert jd_alpha(p, q, 1.0).value == jd_general(
                weighted_family([p, q], [0.5, 0.5])
            ).value

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for a in (0.5, 1.0, 1.5, 2.5):
            for _ in range(50):
                p, q = random_distribution(4, rng), random_distribution(4, rng)
                assert jd_alpha(p, q, a).value == jd_alpha(q, p, a).value

    def test_permutation_covariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, q = random_distribution(5, rng), random_distribution(5, rng)
            perm = rng.permutation(5)
            assert jd_alpha(p.probs[perm], q.probs[perm], 1.5).value == pytest.approx(
                jd_alpha(p, q, 1.5).value, abs=1e-13
            )

    def test_nonnegative_identity_of_indiscernibles(self):
        rng = np.random.default_rng(5)
        for a in (0.5, 1.0, 1.5, 2.0):
            for _ in range(100):
                p, q = random_distribution(3, rng), random_distribution(3, rng)
                v = jd_alpha(p, q, a).value
                assert v >= -1e-12
                if v <= 1e-12:
                    assert np.max(np.abs(p.probs - q.probs)) <= 1e-5

    def test_joint_convexity_spot_check(self):
        rng = np.random.default_rng(6)
        for a in (1.0, 1.5, 2.0):
            for _ in range(100):
                p1, q1 = random_distribution(3, rng), random_distribution(3, rng)
                p2, q2 = random_distribution(3, rng), random_distribution(3, rng)
                lam = rng.uniform()
                mixed = jd_alpha(
                    lam * p1.probs + (1 - lam) * p2.probs,
                    lam * q1.probs + (1 - lam) * q2.probs,
                    a,
                ).value
                convex = lam * jd_alpha(p1, q1, a).value + (1 - lam) * jd_alpha(p2, q2, a).value
                assert mixed <= convex + 1e-10


class TestQJD:
    def test_identical_states(self):
        fam = weighted_family([PURE0, PURE0], [0.5, 0.5])
        assert qjd_general(fam).value == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_qubits(self):
        fam = weighted_family([PURE0, PURE1], [0.5, 0.5])
        assert qjd_general(fam).value == pytest.approx(LN2, abs=1e-12)

    def test_commuting_diagonal_reduces_to_classical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ps = [random_distribution(3, rng) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            qfam = weighted_family([np.diag(p.probs).astype(complex) for p in ps], w)
            cfam = weighted_family(ps, w)
            assert qjd_general(qfam).value == pytest.approx(
                jd_general(cfam).value, abs=1e-10
            )

    def test_qjd_alpha_orthogonal_pures(self):
        assert qjd_alpha(PURE0, PURE1, 2.0).value == pytest.approx(0.5, abs=1e-12)

    def test_qjd_alpha_one_dispatches(self):
        rng = np.random.default_rng(8)
        r, s = ginibre_state(2, rng), ginibre_state(2, rng)
        assert qjd_alpha(r, s, 1.0).value == qjd_general(
            weighted_family([r, s], [0.5, 0.5])
        ).value

    def test_commuting_pair_matches_classical_spectra(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            U = random_unitary(2, rng)
            p = rng.dirichlet(np.ones(2))
            q = rng.dirichlet(np.ones(2))
            r = U @ np.diag(p) @ U.conj().T
            s = U @ np.diag(q) @ U.conj().T
            assert qjd_alpha(r, s, 1.5).value == pytest.approx(
                jd_alpha(p, q, 1.5).value, abs=1e-10
            )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            r, s = ginibre_state(3, rng), ginibre_state(3, rng)
            U = random_unitary(3, rng)
            ru = U @ r.matrix @ U.conj().T
            su = U @ s.matrix @ U.conj().T
            for a in (1.0, 1.5):
                assert qjd_alpha(ru, su, a).value == pytest.approx(
                    qjd_alpha(r, s, a).value, abs=1e-9
                )

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        r, s = ginibre_state(2, rng), ginibre_state(2, rng)
        for a in (0.5, 1.0, 2.0):
            assert qjd_alpha(r, s, a).value == qjd_alpha(s, r, a).value


class TestRedundancy:
    def test_at_mixture_equals_divergence(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            fam = random_family(rng)
            assert redundancy(fam, mixture(fam)) == pytest.approx(
                jd_general(fam).value, abs=1e-12
            )

    def test_single_member(self):
        from jensengeo.classical import kl_divergence

        fam = weighted_family([[0.5, 0.5]], [1.0])
        q = [0.25, 0.75]
        assert redundancy(fam, q) == pytest.approx(kl_divergence([0.5, 0.5], q), abs=1e-15)

    def test_mixture_minimizes_on_simplex_grid(self):
        rng = np.random.default_rng(13)
        fam = random_family(rng, k=3, n=2)
        best = jd_general(fam).value
        for t in np.linspace(0.0, 1.0, 201):
            q = np.array([t, 1.0 - t])
            assert redundancy(fam, q) >= best - 1e-12

    def test_infinite_propagates(self):
        fam = weighted_family([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5])
        assert redundancy(fam, [1.0, 0.0]) == math.inf


class TestCompensationIdentity:
    def test_residual_at_mixture(self):
        rng = np.random.default_rng(14)
        fam = random_family(rng)
        assert compensation_residual(fam, mixture(fam)) <= 1e-12

    def test_random_families(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            fam = random_family(rng)
            q = random_distribution(len(fam.members[0]), rng)
            assert compensation_residual(fam, q) <= 1e-10

    def test_two_point_uniform_reference(self):
        fam = weighted_family([[0.9, 0.1], [0.2, 0.8]], [0.6, 0.4])
        assert compensation_residual(fam, [0.5, 0.5]) <= 1e-12

    def test_infinite_terms_rejected(self):
        fam = weighted_family([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            compensation_residual(fam, [1.0, 0.0])


class TestDonaldIdentity:
    def test_residual_at_mixture(self):
        rng = np.random.default_rng(16)
        fam = random_qubit_family(rng)
        assert donald_residual(fam, mixture(fam)) <= 1e-9

    def test_random_families_maximally_mixed_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            fam = random_qubit_family(rng)
            assert donald_residual(fam, np.eye(2) / 2.0) <= 1e-9

    def test_commuting_matches_classical(self):
        rng = np.random.default_rng(18)
        ps = [random_distribution(2, rng) for _ in range(2)]
        w = rng.dirichlet(np.ones(2))
        q = random_distribution(2, rng)
        qfam = weighted_family([np.diag(p.probs).astype(complex) for p in ps], w)
        cfam = weighted_family(ps, w)
        assert q_redundancy(qfam, np.diag(q.probs).astype(complex)) == pytest.approx(
            redundancy(cfam, q), abs=1e-10
        )

    def test_support_violation_rejected(self):
        fam = weighted_family([np.eye(2) / 2.0, PURE0], [0.5, 0.5])
        with pytest.raises(ValueError, match="support"):
            donald_residual(fam, PURE1)


class TestIdentityResidualsAreTheCompositions:
    """Each residual is the public composition of its three terms, bit for bit, for a raw
    reference and for the same reference as a validated object."""

    def test_compensation(self):
        rng = np.random.default_rng(56)
        for _ in range(30):
            fam = random_family(rng)
            ref = random_distribution(len(fam.members[0]), rng)
            for q in (ref.probs, ref):
                expected = abs(
                    redundancy(fam, q) - jd_general(fam).value - kl_divergence(mixture(fam), q)
                )
                assert compensation_residual(fam, q) == expected

    def test_donald(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            members = [ginibre_state(d, rng), random_pure_state(d, rng), ginibre_state(d, rng)]
            fam = weighted_family(members, rng.dirichlet(np.ones(3)))
            ref = ginibre_state(d, rng)
            for sigma in (ref.matrix, ref):
                expected = abs(
                    q_redundancy(fam, sigma)
                    - qjd_general(fam).value
                    - relative_entropy(mixture(fam), sigma)
                )
                assert donald_residual(fam, sigma) == expected

    # a family and a reference whose support the mixture escapes, with the kind's gate
    ESCAPES = pytest.mark.parametrize(
        "residual, fam, ref, gate",
        [
            (
                compensation_residual,
                ([[0.5, 0.5], [0.25, 0.75]], [0.5, 0.5]),
                [1.0, 0.0],
                "DUAL_TOL_CLASSICAL",
            ),
            (donald_residual, ([np.eye(2) / 2.0, PURE0], [0.5, 0.5]), PURE1, "DUAL_TOL_QUANTUM"),
        ],
    )

    @ESCAPES
    def test_infinite_term_error_names_finiteness_and_support(self, residual, fam, ref, gate):
        with pytest.raises(ValueError) as err:
            residual(weighted_family(*fam), ref)
        assert "finite" in str(err.value) and "support" in str(err.value)

    @ESCAPES
    def test_failed_cross_check_is_reported_before_an_infinite_term(
        self, monkeypatch, residual, fam, ref, gate
    ):
        monkeypatch.setattr(jensen, gate, -1.0)
        with pytest.raises(ArithmeticError, match="disagree"):
            residual(weighted_family(*fam), ref)


class TestHolevo:
    def test_orthogonal_pures(self):
        fam = weighted_family([PURE0, PURE1], [0.5, 0.5])
        assert holevo_bound(fam) == pytest.approx(LN2, abs=1e-12)

    def test_identical_states(self):
        fam = weighted_family([PURE0, PURE0], [0.5, 0.5])
        assert holevo_bound(fam) == pytest.approx(0.0, abs=1e-12)

    def test_nonorthogonal_pures_via_overlap_spectrum(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            r1, r2 = random_pure_state(3, rng), random_pure_state(3, rng)
            fam = weighted_family([r1, r2], [0.5, 0.5])
            overlap = float(np.trace(r1.matrix @ r2.matrix).real)
            lam = 0.5 + math.sqrt(overlap) / 2.0
            expected = shannon_entropy([lam, 1.0 - lam])
            assert holevo_bound(fam) == pytest.approx(expected, abs=1e-10)

    def test_bounds_mixed_state_information(self):
        # never exceeds the entropy of the mixture
        rng = np.random.default_rng(20)
        for _ in range(50):
            fam = random_qubit_family(rng)
            from jensengeo.quantum import von_neumann_entropy

            assert holevo_bound(fam) <= von_neumann_entropy(mixture(fam)) + 1e-12


class TestOrderTwoClosedForm:
    """JD_2 = ||P - Q||^2 / 4 and QJD_2 = ||rho - sigma||_HS^2 / 4, also for nearby pairs."""

    @pytest.mark.parametrize("t", [1.0, 1e-3, 1e-6])
    def test_pairs_equal_a_quarter_of_the_squared_distance(self, t):
        # the second point is (1 - t) x + t y, at distance t ||x - y|| from the first; an
        # entropy difference loses about 9e-5 of the value to cancellation at t = 1e-6
        rng = np.random.default_rng(47)
        for _ in range(10):
            p, r = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            q = (1.0 - t) * p + t * r
            expected = alpha_norm_power(p, q, 2.0) / 4.0
            assert jd_alpha(p, q, 2.0).value == pytest.approx(expected, rel=1e-12, abs=0.0)
            rho, tau = ginibre_state(3, rng).matrix, random_pure_state(3, rng).matrix
            sigma = (1.0 - t) * rho + t * tau
            expected = hs_distance_sq(rho, sigma) / 4.0
            assert qjd_alpha(rho, sigma, 2.0).value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_families(self):
        rng = np.random.default_rng(48)
        for k in (1, 3, 6):
            w = rng.dirichlet(np.ones(k))
            fam = weighted_family([ginibre_state(3, rng) for _ in range(k)], w)
            X = np.array([m.matrix for m in fam.members])
            mix = mixture(fam).matrix
            expected = sum(wj * np.sum(np.abs(x - mix) ** 2) for wj, x in zip(w, X))
            assert qjd_alpha_general(fam, 2.0).value == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestSpectraTakenOnce:
    """Each state is decomposed once, by the eigvalsh that validates it, and each mixture once."""

    @staticmethod
    def expected(calls: int, states: int, mixtures: int, alpha: float) -> dict:
        mixtures *= alpha != 2.0
        return {
            "calls": calls,
            "eigh": mixtures if alpha == 1.0 else 0,
            "eigvalsh": states + (0 if alpha == 1.0 else mixtures),
        }

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_raw_states(self, decompositions, alpha):
        rng = np.random.default_rng(49)
        raw = [ginibre_state(3, rng).matrix for _ in range(5)] + [random_pure_state(3, rng).matrix]
        decompositions.reset()
        # one call validates the states, and one decomposes the mixtures unless alpha = 2
        calls = 1 + (alpha != 2.0)
        qjd_alpha(raw[0], raw[1], alpha)
        assert decompositions == self.expected(calls, 2, 1, alpha)
        decompositions.reset()
        divergence_matrix(raw, alpha)
        assert decompositions == self.expected(calls, 6, 15, alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_state_objects(self, decompositions, alpha):
        # objects keep the spectra that validated them: only the mixtures are decomposed
        rng = np.random.default_rng(50)
        states = [ginibre_state(3, rng) for _ in range(5)]
        calls = int(alpha != 2.0)
        decompositions.reset()
        divergence_matrix(states, alpha)
        assert decompositions == self.expected(calls, 0, 10, alpha)
        decompositions.reset()
        qjd_alpha_general(weighted_family(states, np.full(5, 0.2)), alpha)
        assert decompositions == self.expected(calls, 0, 1, alpha)

    # matrices decomposed by one call: raw states take the eigvalsh that validates them,
    # DensityMatrix objects none, and sigma of a relative entropy one eigh more
    PER_CALL = {
        "alpha_entropy_q": (1, lambda s: alpha_entropy_q(s["raw"], 1.5)),
        "von_neumann_entropy": (1, lambda s: von_neumann_entropy(s["raw"])),
        "spectrum": (1, lambda s: spectrum(s["raw"])),
        "is_pure": (1, lambda s: is_pure(s["raw"])),
        "pure_overlap_eigenvalues": (2, lambda s: pure_overlap_eigenvalues(*s["pure"])),
        "qjd_alpha_general": (1, lambda s: qjd_alpha_general(s["family"], 1.5)),
        "qjd_general": (1, lambda s: qjd_general(s["family"])),
        "holevo_bound": (1, lambda s: holevo_bound(s["family"])),
        "divergence_matrix": (6, lambda s: divergence_matrix(s["objects"], 1.5)),
        "donald_residual": (4, lambda s: donald_residual(s["family"], s["raw"])),
        "relative_entropy": (3, lambda s: relative_entropy(s["raw"], s["pure"][0])),
    }

    @pytest.mark.parametrize("name", list(PER_CALL))
    def test_matrices_per_call(self, decompositions, name):
        rng = np.random.default_rng(55)
        objects = [ginibre_state(3, rng) for _ in range(4)]
        states = {
            "raw": ginibre_state(3, rng).matrix,
            "pure": [random_pure_state(3, rng).matrix for _ in range(2)],
            "objects": objects,
            "family": weighted_family(objects, [0.1, 0.2, 0.3, 0.4]),
        }
        matrices, call = self.PER_CALL[name]
        decompositions.reset()
        call(states)
        assert decompositions.matrices == matrices

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_raw_objects_and_both_give_one_matrix(self, alpha):
        rng = np.random.default_rng(51)
        # a trace off by 1e-10 is divided out on validation
        raw = [ginibre_state(d, rng).matrix * (1.0 + 1e-10) for d in [3] * 6]
        raw += [random_pure_state(3, rng).matrix for _ in range(2)]
        objects = [validate_density(x) for x in raw]
        both = [o if i % 2 else x for i, (x, o) in enumerate(zip(raw, objects))]
        D = divergence_matrix(raw, alpha).d
        assert np.array_equal(divergence_matrix(objects, alpha).d, D)
        assert np.array_equal(divergence_matrix(both, alpha).d, D)
        assert qjd_alpha(both[2], both[3], alpha).value == D[2, 3]


class TestRelativeEntropyKernel:
    """D(rho||sigma) from rho's eigenvalues and sigma's eigenpairs."""

    @staticmethod
    def by_matrix_logs(r: np.ndarray, s: np.ndarray) -> float:
        (wr, Vr), (ws, Vs) = np.linalg.eigh(r), np.linalg.eigh(s)
        log = lambda w, V: (V * np.log(w)) @ V.conj().T
        return float(np.trace(r @ (log(wr, Vr) - log(ws, Vs))).real)

    def test_full_rank_pairs_match_matrix_logs(self):
        rng = np.random.default_rng(52)
        for d in (2, 3, 4):
            for _ in range(5):
                r, s = ginibre_state(d, rng).matrix, ginibre_state(d, rng).matrix
                assert relative_entropy(r, s) == pytest.approx(self.by_matrix_logs(r, s), abs=1e-12)

    def test_q_redundancy_is_the_mean_relative_entropy(self):
        rng = np.random.default_rng(53)
        fam = weighted_family([ginibre_state(3, rng) for _ in range(4)], [0.1, 0.2, 0.3, 0.4])
        sigma = ginibre_state(3, rng)
        expected = sum(
            w * relative_entropy(m, sigma) for w, m in zip(fam.weights.probs, fam.members)
        )
        assert q_redundancy(fam, sigma) == pytest.approx(expected, abs=1e-14)

    def test_support_rule_is_the_weight_on_the_null_space(self):
        # sigma = |u><u| in a random basis; rho puts weight eps on the null space of sigma
        rng = np.random.default_rng(54)
        U = random_unitary(2, rng)
        sigma = U @ np.diag([1.0, 0.0]) @ U.conj().T
        for eps, finite in ((1e-11, True), (1e-9, False)):
            rho = U @ np.diag([1.0 - eps, eps]) @ U.conj().T
            assert math.isfinite(relative_entropy(rho, sigma)) is finite


# the Pauli matrices, for qubits I/2 + r.sigma/2 at Bloch vector r
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.diag([1.0, -1.0]).astype(complex),
)
TWO_LEVEL_ORDERS = [0.5, 1.0, 1.5, 2.0, 2.5]


def bloch_qubit(r) -> np.ndarray:
    return (np.eye(2) + sum(c * s for c, s in zip(r, PAULI))) / 2.0


def pure_sets(rng, d: int, count: int) -> list:
    return [random_pure_state(d, rng).matrix for _ in range(count)]


class TestTwoLevelMixtures:
    """Qubit families and pure pairs mix to at most two nonzero eigenvalues, which the kernel
    takes from _two_level in closed form, with no eigensolver, when every family of a call is
    one of them."""

    SETS = {
        "qubits": lambda rng: [ginibre_state(2, rng).matrix for _ in range(6)],
        "pure3": lambda rng: pure_sets(rng, 3, 6),
        "pure4": lambda rng: pure_sets(rng, 4, 6),
        # a Ginibre state in the set sends every pair, pure pairs included, to the eigensolver
        "pure_and_ginibre3": lambda rng: pure_sets(rng, 3, 3)
        + [ginibre_state(3, rng).matrix for _ in range(3)],
    }

    @pytest.mark.parametrize("alpha", TWO_LEVEL_ORDERS)
    @pytest.mark.parametrize("name", list(SETS))
    def test_matrix_entries_are_the_pair_calls(self, name, alpha):
        points = self.SETS[name](np.random.default_rng(61))
        D = divergence_matrix(points, alpha).d
        # in the mixed set a pure pair's entry reads the null eigenvalues of eigvalsh, within
        # 4 d eps of 0, which its pair call does not: the rank rule's bound below order 1
        noise = 2.0 * (12.0 * np.finfo(float).eps) ** alpha / (1.0 - alpha) if alpha < 1 else 1e-13
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                pair = qjd_alpha(points[i], points[j], alpha).value
                assert D[i, j] == D[j, i]
                if name == "pure_and_ginibre3" and j < 3:
                    assert abs(D[i, j] - pair) <= noise
                else:
                    assert D[i, j] == pair

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_dispatch_per_call(self, decompositions, alpha):
        # validation decomposes the 6 states once; qubit and pure sets need no eigensolver for
        # their 15 mixtures, and a set with a Ginibre state decomposes all of them
        rng = np.random.default_rng(62)
        calls = {"pure_and_ginibre3": (2, 15), "qubits": (1, 0), "pure3": (1, 0)}
        for name, (n_calls, mixtures) in calls.items():
            points = self.SETS[name](rng)
            decompositions.reset()
            divergence_matrix(points, alpha)
            assert decompositions == {
                "calls": n_calls,
                "eigh": mixtures if alpha == 1.0 else 0,
                "eigvalsh": 6 + (0 if alpha == 1.0 else mixtures),
            }

    def test_order_one_gate_still_raises(self, monkeypatch):
        rng = np.random.default_rng(63)
        qubits = ginibre_state(2, rng), ginibre_state(2, rng)
        pures = random_pure_state(4, rng), random_pure_state(4, rng)
        assert qjd_alpha(*qubits, 1.0).dual_residual <= 1e-14
        assert qjd_alpha(*pures, 1.0).dual_residual <= 1e-14
        monkeypatch.setattr(jensen, "DUAL_TOL_QUANTUM", -1.0)
        for pair in (qubits, pures):
            with pytest.raises(ArithmeticError, match="forms disagree"):
                qjd_alpha(*pair, 1.0)


def mp_entropy(mp, lams, a: float):
    lams = [lam for lam in lams if lam > 0]
    if a == 1.0:
        return -mp.fsum(lam * mp.log(lam) for lam in lams)
    return (1 - mp.fsum(lam ** mp.mpf(a) for lam in lams)) / (mp.mpf(a) - 1)


def mp_qubit_eigenvalues(mp, M):
    a, d, b = mp.re(M[0][0]), mp.re(M[1][1]), M[0][1]
    half, disc = (a + d) / 2, mp.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    return half - disc, half + disc


def mp_qubit_family_value(mp, mats, weights, a: float):
    """The order-a divergence of a qubit family, from its float entries, at 50 digits."""
    X = [[[mp.mpc(z.real, z.imag) for z in row] for row in M] for M in mats]
    W = [mp.mpf(float(w)) for w in weights]
    mix = [[mp.fsum(w * x[p][q] for w, x in zip(W, X)) for q in range(2)] for p in range(2)]
    members = mp.fsum(w * mp_entropy(mp, mp_qubit_eigenvalues(mp, x), a) for w, x in zip(W, X))
    return mp_entropy(mp, mp_qubit_eigenvalues(mp, mix), a) - members


class TestTwoLevelAgainstMpmath:
    """Closed-form two-level values against a 50-digit evaluation of the same inputs."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize(
        "radius, tol, tol_below_order_1",
        [
            (1e-3, 1e-15, 1e-15),  # near I/2: lambda_+ and lambda_- within 1e-3 of 1/2
            (None, 2e-15, 2e-15),  # Bloch radii uniform in [0, 1)
            # near purity the members' eigenvalues 5e-9 come from eigvalsh, to about eps in
            # absolute terms, and S_0.5 has slope lambda^-1/2 = 1.4e4 there
            (1.0 - 1e-8, 1e-14, 1e-11),
        ],
    )
    def test_qubit_families(self, radius, tol, tol_below_order_1, alpha):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(64)
        for k in (2, 3, 4, 5):
            directions = rng.standard_normal((k, 3))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = rng.uniform(0.0, 1.0, k) if radius is None else np.full(k, radius)
            fam = weighted_family(
                [bloch_qubit(r * u) for r, u in zip(radii, directions)], rng.dirichlet(np.ones(k))
            )
            mats = [m.matrix for m in fam.members]
            expected = float(mp_qubit_family_value(mp, mats, fam.weights.probs, alpha))
            error = abs(qjd_alpha_general(fam, alpha).value - expected)
            assert error <= (tol_below_order_1 if alpha < 1.0 else tol)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("angle", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    @pytest.mark.parametrize("d", [3, 4])
    def test_pure_pairs_at_small_angles(self, d, angle, alpha):
        # |<u|v>| = cos(angle): the mixture's spectrum is (1 +- cos(angle)) / 2
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        u, v = np.zeros(d, dtype=complex), np.zeros(d, dtype=complex)
        u[0] = 1.0
        v[0], v[1] = np.cos(angle), np.exp(0.7j) * np.sin(angle)
        c = mp.cos(mp.mpf(angle))
        expected = float(mp_entropy(mp, ((1 + c) / 2, (1 - c) / 2), alpha))
        value = qjd_alpha(np.outer(u, u.conj()), np.outer(v, v.conj()), alpha).value
        assert abs(value - expected) <= 1e-15
