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
    ginibre_state,
    hs_distance_sq,
    random_pure_state,
    random_unitary,
    relative_entropy,
    validate_density,
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
        # valid members always mix to a state; the floor guards the kernel itself
        X = np.array([np.diag([1.5, -0.5]), np.diag([1.5, -0.5])], dtype=complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            jensen._gaps(X, np.array([[0, 1]]), np.full((1, 2), 0.5), 1.5)

    def test_passes_at_default_tolerances(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            states = [ginibre_state(d, rng) for _ in range(4)] + [random_pure_state(d, rng)]
            fam = weighted_family(states, rng.dirichlet(np.ones(5)))
            assert qjd_general(fam).value > 0.0


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
    def count_matrices(monkeypatch):
        counts = {"calls": 0, "eigh": 0, "eigvalsh": 0}
        for name in ("eigh", "eigvalsh"):

            def counted(A, *args, _solver=getattr(np.linalg, name), _name=name, **kwargs):
                counts["calls"] += 1
                counts[_name] += int(np.prod(np.shape(A)[:-2]))
                return _solver(A, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @staticmethod
    def expected(calls: int, states: int, mixtures: int, alpha: float) -> dict:
        mixtures *= alpha != 2.0
        return {
            "calls": calls,
            "eigh": mixtures if alpha == 1.0 else 0,
            "eigvalsh": states + (0 if alpha == 1.0 else mixtures),
        }

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_raw_states(self, monkeypatch, alpha):
        rng = np.random.default_rng(49)
        raw = [ginibre_state(3, rng).matrix for _ in range(5)] + [random_pure_state(3, rng).matrix]
        counts = self.count_matrices(monkeypatch)
        # one call validates the states, and one decomposes the mixtures unless alpha = 2
        calls = 1 + (alpha != 2.0)
        qjd_alpha(raw[0], raw[1], alpha)
        assert counts == self.expected(calls, 2, 1, alpha)
        counts.update(calls=0, eigh=0, eigvalsh=0)
        divergence_matrix(raw, alpha)
        assert counts == self.expected(calls, 6, 15, alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_state_objects(self, monkeypatch, alpha):
        # objects skip validation: their spectra come from one call, and only when needed
        rng = np.random.default_rng(50)
        states = [ginibre_state(3, rng) for _ in range(5)]
        calls, spectra = (0, 0) if alpha == 2.0 else (2, 5)
        counts = self.count_matrices(monkeypatch)
        divergence_matrix(states, alpha)
        assert counts == self.expected(calls, spectra, 10, alpha)
        counts.update(calls=0, eigh=0, eigvalsh=0)
        qjd_alpha_general(weighted_family(states, np.full(5, 0.2)), alpha)
        assert counts == self.expected(calls, spectra, 1, alpha)

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
