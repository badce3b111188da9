import math

import numpy as np
import pytest

from jensengeo.classical import alpha_entropy, kl_divergence, shannon_entropy, total_variation
from jensengeo.jensen import qjd_alpha
from jensengeo.quantum import (
    DensityMatrix,
    alpha_entropy_q,
    as_density,
    density_from_json,
    density_to_json,
    ginibre_state,
    hs_distance_sq,
    is_pure,
    pure_overlap_eigenvalues,
    qubit_mixture_eigenvalues,
    random_pure_state,
    random_unitary,
    relative_entropy,
    spectrum,
    trace_distance,
    trace_exp_qubit,
    validate_density,
    von_neumann_entropy,
)

LN2 = math.log(2.0)
MAX_MIXED = np.eye(2) / 2.0
PURE0 = np.diag([1.0, 0.0]).astype(complex)
PURE1 = np.diag([0.0, 1.0]).astype(complex)
# 0.5 ln 2 + 0.5 ln(2/3), arbitrary-precision evaluation
KL_HALF_QUARTER = 0.14384103622589046


def charpoly_eigs_3x3(A):
    """Characteristic-polynomial eigenvalue oracle for a 3x3 Hermitian matrix."""
    c2 = np.trace(A).real
    c1 = (np.trace(A).real ** 2 - np.trace(A @ A).real) / 2.0
    c0 = np.linalg.det(A).real
    roots = np.roots([1.0, -c2, c1, -c0])
    return np.sort(roots.real)[::-1]


# the maximally mixed qubit in the wire format
HALF = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(MAX_MIXED)
        assert np.allclose(spectrum(rho).eigenvalues, [0.5, 0.5])

    def test_pure_diag(self):
        rho = validate_density(PURE0)
        assert is_pure(rho)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            validate_density(np.diag([1.1, -0.1]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.diag([0.6, 0.6]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_density(np.zeros((2, 3)))

    def test_symmetrizes_tiny_asymmetry(self):
        A = np.array([[0.5, 0.1 + 5e-11], [0.1, 0.5]], dtype=complex)
        rho = validate_density(A)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) == 0.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        rho = ginibre_state(3, rng)
        again = density_from_json(density_to_json(rho))
        assert np.allclose(again.matrix, rho.matrix, atol=1e-15)

    @pytest.mark.parametrize("entries", [[[1]], [[[1, 0, 0]]], 5, [[[1, 0], "x"]], [[{"re": 1}]]])
    def test_json_rejects_entries_that_are_not_pairs(self, entries):
        with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
            density_from_json({"entries": entries})

    @pytest.mark.parametrize(
        "dim, entries",
        # true equals 1, the size of the last matrix
        [(2.7, HALF), (2.0, HALF), ("2", HALF), (None, HALF), (True, [[[1, 0]]])],
    )
    def test_json_dim_must_be_an_integer(self, dim, entries):
        with pytest.raises(ValueError, match='"dim" must be an integer'):
            density_from_json({"dim": dim, "entries": entries})

    def test_json_dim_may_be_a_numpy_integer(self):
        assert density_from_json({"dim": np.int64(2), "entries": HALF}).dim == 2

    @pytest.mark.parametrize(
        "A, message",
        [
            # the trace is 0 and the symmetrized entries stay finite
            ([[1e308, 0], [0, -1e308]], "trace is 0.0"),
            ([[1e308, 0], [0, 1e308]], "trace is inf"),
            # inf + (-inf) in the trace's pairwise sum
            (np.diag([1e308, 1e308, -1e308, -1e308]), "trace is nan"),
            # (A + A^dagger) / 2 would overflow the off-diagonal entries to inf
            ([[0.5, 1e308], [1e308, 0.5]], "positive semidefinite"),
            # the asymmetry A - A^dagger overflows
            ([[0, 1.7e308], [-1.7e308, 0]], "max asymmetry inf"),
        ],
    )
    def test_entries_near_the_float_range_are_refused(self, A, message):
        with pytest.raises(ValueError, match=message):
            validate_density(A)

    def test_keeps_the_eigenvalues_that_validated_it(self):
        A = np.diag([0.25, 0.75]).astype(complex)
        rho = validate_density(A)
        assert np.array_equal(rho.eigenvalues, np.linalg.eigvalsh(A))
        assert not rho.eigenvalues.flags.writeable


class TestHandBuiltDensityMatrix:
    """A DensityMatrix built from a matrix takes its spectrum from one eigvalsh."""

    def test_one_call_gives_its_eigenvalues(self, decompositions):
        A = np.diag([0.25, 0.75]).astype(complex)
        rho = DensityMatrix(matrix=A)
        assert decompositions == {"calls": 1, "eigh": 0, "eigvalsh": 1}
        assert np.array_equal(rho.eigenvalues, [0.25, 0.75])
        von_neumann_entropy(rho), is_pure(rho), spectrum(rho)
        assert decompositions["calls"] == 1

    def test_stored_eigenvalues_are_read_only(self):
        w = np.array([0.25, 0.75])
        rho = DensityMatrix(matrix=np.diag(w), eigenvalues=w)
        with pytest.raises(ValueError, match="read-only"):
            rho.eigenvalues[0] = 9.0
        # the caller's array is not frozen
        w[0] = 0.5
        assert w.flags.writeable

    def test_spectrum_is_a_copy(self):
        rho = DensityMatrix(matrix=np.diag([0.25, 0.75]))
        sp = spectrum(rho)
        assert np.array_equal(sp.eigenvalues, [0.75, 0.25])
        sp.eigenvalues[0] = 9.0
        assert np.array_equal(rho.eigenvalues, [0.25, 0.75])

    def test_repr_shows_only_the_matrix(self):
        A = np.diag([0.25, 0.75])
        assert repr(DensityMatrix(matrix=A)) == f"DensityMatrix(matrix={A!r})"


class TestSpectrum:
    def test_diagonal(self):
        assert np.allclose(spectrum(np.diag([0.7, 0.3])).eigenvalues, [0.7, 0.3])

    def test_rank_one_projector(self):
        rho = np.full((2, 2), 0.5)
        assert np.allclose(spectrum(rho).eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = ginibre_state(3, rng)
            w = spectrum(rho).eigenvalues
            assert np.max(np.abs(w - charpoly_eigs_3x3(rho.matrix))) < 1e-9

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = ginibre_state(4, rng)
            sp = spectrum(rho, with_vectors=True)
            recon = (sp.eigenvectors * sp.eigenvalues) @ sp.eigenvectors.conj().T
            assert np.max(np.abs(recon - rho.matrix)) < 1e-9
            ortho = sp.eigenvectors.conj().T @ sp.eigenvectors
            assert np.max(np.abs(ortho - np.eye(4))) < 1e-9

    def test_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4):
            for _ in range(50):
                w = spectrum(ginibre_state(dim, rng)).eigenvalues
                assert abs(w.sum() - 1.0) < 1e-9
                assert w.min() > -1e-10


class TestEntropies:
    def test_pure_zero(self):
        assert von_neumann_entropy(PURE0) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(MAX_MIXED) == pytest.approx(LN2, abs=1e-12)

    def test_diagonal_reduces_to_classical(self):
        assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(
            shannon_entropy([0.25, 0.75]), abs=1e-12
        )

    def test_alpha_pure(self):
        assert alpha_entropy_q(PURE0, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_maximally_mixed(self):
        assert alpha_entropy_q(MAX_MIXED, 2.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("delta", [1e-10, 1e-12, 1e-14])
    def test_alpha_stable_across_order_one(self, delta):
        # |dS_a/da| <= (ln 3)^2 / 2 < 1 in dimension 3
        rng = np.random.default_rng(22)
        for _ in range(20):
            rho = ginibre_state(3, rng)
            s = von_neumann_entropy(rho)
            for a in (1.0 - delta, 1.0 + delta):
                assert alpha_entropy_q(rho, a) == pytest.approx(s, abs=2 * delta + 1e-14)

    def test_alpha_equals_classical_on_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = ginibre_state(2, rng)
            w = spectrum(rho).eigenvalues
            assert alpha_entropy_q(rho, 1.5) == pytest.approx(
                alpha_entropy(np.clip(w, 0, None) / w.sum(), 1.5), abs=1e-12
            )


class TestRelativeEntropy:
    def test_identity(self):
        rho = validate_density(MAX_MIXED)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonals_reduce_to_kl(self):
        r = np.diag([0.5, 0.5])
        s = np.diag([0.25, 0.75])
        assert relative_entropy(r, s) == pytest.approx(KL_HALF_QUARTER, abs=1e-14)
        assert relative_entropy(r, s) == pytest.approx(
            kl_divergence([0.5, 0.5], [0.25, 0.75]), abs=1e-14
        )

    def test_orthogonal_pure_infinite(self):
        assert relative_entropy(PURE0, PURE1) == math.inf

    def test_support_rule_ignores_eigenvalues_at_or_below_threshold(self):
        sigma = np.diag([1.0, 0.0])
        # an eigenvalue of 1e-11 outside supp(sigma) is below the 1e-10 threshold
        assert math.isfinite(relative_entropy(np.diag([1.0 - 1e-11, 1e-11]), sigma))
        assert relative_entropy(np.diag([1.0 - 1e-9, 1e-9]), sigma) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            relative_entropy(MAX_MIXED, np.eye(3) / 3.0)

    def test_leak_below_the_support_threshold_is_not_negative(self):
        # rho's eigenvalue 1e-11 counts in Tr rho ln rho, so the value is floored at 0
        assert relative_entropy(np.diag([1.0 - 1e-11, 1e-11]), np.diag([1.0, 0.0])) == 0.0

    @pytest.mark.parametrize("eps", [1e-12, 1e-10, 2e-10])
    def test_small_eigenvalues_count_alike_in_both_forms(self, eps):
        # the entropy difference and the averaged relative entropy see rho's eigenvalue eps alike
        result = qjd_alpha(np.diag([1.0 - eps, eps]), MAX_MIXED, 1.0)
        assert result.dual_residual < 1e-15

    def test_random_commuting_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            U = random_unitary(3, rng)
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            r = U @ np.diag(p) @ U.conj().T
            s = U @ np.diag(q) @ U.conj().T
            assert relative_entropy(r, s) == pytest.approx(kl_divergence(p, q), abs=1e-10)


class TestDistances:
    def test_trace_distance_zero_and_max(self):
        assert trace_distance(MAX_MIXED, MAX_MIXED) == pytest.approx(0.0, abs=1e-15)
        assert trace_distance(PURE0, PURE1) == pytest.approx(2.0, abs=1e-12)

    def test_commuting_reduces_to_total_variation(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert trace_distance(np.diag(p), np.diag(q)) == pytest.approx(
                total_variation(p, q), abs=1e-12
            )

    def test_hs_distance(self):
        assert hs_distance_sq(PURE0, PURE1) == pytest.approx(2.0, abs=1e-12)
        rng = np.random.default_rng(42)
        for _ in range(50):
            r, s = ginibre_state(3, rng), ginibre_state(3, rng)
            mu = np.linalg.eigvalsh(r.matrix - s.matrix)
            assert hs_distance_sq(r, s) == pytest.approx(float(np.sum(mu**2)), abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a, b, c = (ginibre_state(2, rng) for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9
            hs = lambda x, y: math.sqrt(hs_distance_sq(x, y))
            assert hs(a, c) <= hs(a, b) + hs(b, c) + 1e-9


class TestClosedForms:
    def test_qubit_eigs_pure(self):
        assert qubit_mixture_eigenvalues(PURE0) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_qubit_eigs_maximally_mixed(self):
        assert qubit_mixture_eigenvalues(MAX_MIXED) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_qubit_eigs_match_solver(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            rho = ginibre_state(2, rng)
            lam = qubit_mixture_eigenvalues(rho)
            w = spectrum(rho).eigenvalues
            assert abs(lam[0] - w[0]) < 1e-10 and abs(lam[1] - w[1]) < 1e-10

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-12])
    def test_qubit_small_eigenvalue_near_purity(self, eps):
        # 4 det rho / (4 lambda_+) has no cancellation: lambda_- is eps to full relative precision
        upper, lower = qubit_mixture_eigenvalues(np.diag([1.0 - eps, eps]))
        assert lower == pytest.approx(eps, rel=1e-12, abs=0.0)
        assert upper == pytest.approx(1.0 - eps, rel=1e-15, abs=0.0)

    def test_qubit_eigs_dimension_error(self):
        with pytest.raises(ValueError):
            qubit_mixture_eigenvalues(np.eye(3) / 3.0)

    def test_pure_overlap_identical(self):
        assert pure_overlap_eigenvalues(PURE0, PURE0) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_pure_overlap_orthogonal(self):
        assert pure_overlap_eigenvalues(PURE0, PURE1) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_pure_overlap_matches_solver_d4(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            r1, r2 = random_pure_state(4, rng), random_pure_state(4, rng)
            lam = pure_overlap_eigenvalues(r1, r2)
            w = spectrum(validate_density((r1.matrix + r2.matrix) / 2)).eigenvalues
            assert abs(lam[0] - w[0]) < 1e-10 and abs(lam[1] - w[1]) < 1e-10
            assert np.max(np.abs(w[2:])) < 1e-10

    def test_pure_overlap_rejects_mixed(self):
        with pytest.raises(ValueError, match="pure"):
            pure_overlap_eigenvalues(MAX_MIXED, PURE0)

    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 1e-6, 1e-7])
    def test_pure_overlap_small_eigenvalue_near_purity(self, theta):
        # |0> against cos(theta)|0> + sin(theta)|1>: the eigenvalues are (1 +- cos(theta)) / 2,
        # and (1 - cos(theta)) / 2 = sin(theta)^2 / (2 (1 + cos(theta))) without cancellation
        v = np.array([math.cos(theta), math.sin(theta)])
        upper, lower = pure_overlap_eigenvalues(PURE0, np.outer(v, v))
        reference = math.sin(theta) ** 2 / (2.0 * (1.0 + math.cos(theta)))
        assert lower == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert upper == pytest.approx((1.0 + math.cos(theta)) / 2.0, rel=1e-12, abs=0.0)

    def test_trace_exp_endpoints(self):
        assert trace_exp_qubit(MAX_MIXED, 0.0) == pytest.approx(2.0, abs=1e-12)
        # 2 e^{-1/2}
        assert trace_exp_qubit(MAX_MIXED, 1.0) == pytest.approx(1.2130613194252668, abs=1e-14)

    def test_trace_exp_matches_spectral_sum(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            rho = ginibre_state(2, rng)
            w = spectrum(rho).eigenvalues
            assert trace_exp_qubit(rho, 3.0) == pytest.approx(
                float(np.sum(np.exp(-3.0 * w))), abs=1e-10
            )

    def test_trace_exp_rejects_negative_t(self):
        with pytest.raises(ValueError):
            trace_exp_qubit(MAX_MIXED, -1.0)

    def test_trace_exp_rejects_nan_t(self):
        with pytest.raises(ValueError, match="need t >= 0"):
            trace_exp_qubit(MAX_MIXED, math.nan)

    @pytest.mark.parametrize("rho, limit", [(PURE0, 1.0), (MAX_MIXED, 0.0)])
    def test_trace_exp_at_infinite_t_is_the_limit(self, rho, limit):
        # each zero eigenvalue gives 1, each positive one 0
        assert trace_exp_qubit(rho, math.inf) == limit


class TestGenerators:
    def test_ginibre_is_valid_state(self):
        rng = np.random.default_rng(61)
        for dim in (2, 3, 4):
            rho = ginibre_state(dim, rng)
            w = spectrum(rho).eigenvalues
            assert abs(w.sum() - 1.0) < 1e-10
            assert w.min() > 0.0  # full support almost surely

    def test_pure_is_rank_one(self):
        rng = np.random.default_rng(62)
        for dim in (2, 3, 4):
            assert is_pure(random_pure_state(dim, rng))

    def test_unitary(self):
        rng = np.random.default_rng(63)
        U = random_unitary(4, rng)
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12

    def test_seeded_reproducibility(self):
        a = ginibre_state(3, np.random.default_rng(7))
        b = ginibre_state(3, np.random.default_rng(7))
        assert np.array_equal(a.matrix, b.matrix)

    def test_as_density_coerces(self):
        assert as_density([[0.5, 0.0], [0.0, 0.5]]).dim == 2


class TestRankRule:
    """A state whose d - 1 smallest eigenvalues all lie within 4 d eps of 0 has the spectrum
    (0, ..., 0, 1), so a pure state's entropies are exactly 0."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_pure_states_have_zero_entropy(self, d, alpha):
        # the first state at d = 3 is the one CI checks: eigensolver noise read 0.0235 at
        # order 0.1 without the rule
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert alpha_entropy_q(random_pure_state(d, rng), alpha) == 0.0

    def test_validated_and_hand_built_spectra(self):
        # 1e-16 is within 4 d eps = 1.8e-15 of 0 in d = 2
        A = np.diag([1e-16, 1.0 - 1e-16]).astype(complex)
        assert np.array_equal(validate_density(A).eigenvalues, [0.0, 1.0])
        assert np.array_equal(DensityMatrix(matrix=A).eigenvalues, [0.0, 1.0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_second_eigenvalue_1e_14_is_not_made_pure(self, d):
        A = np.diag([0.0] * (d - 2) + [1e-14, 1.0 - 1e-14]).astype(complex)
        for rho in (validate_density(A), DensityMatrix(matrix=A)):
            assert rho.eigenvalues[-2] == 1e-14
            assert alpha_entropy_q(rho, 0.5) > 0.0

    def test_spectrum_with_vectors_keeps_the_stored_eigenvalues(self):
        rho = random_pure_state(3, np.random.default_rng(0))
        plain, full = spectrum(rho), spectrum(rho, with_vectors=True)
        assert np.array_equal(plain.eigenvalues, [1.0, 0.0, 0.0])
        assert np.array_equal(full.eigenvalues, plain.eigenvalues)
        recon = (full.eigenvectors * full.eigenvalues) @ full.eigenvectors.conj().T
        assert np.max(np.abs(recon - rho.matrix)) < 1e-15

    def test_a_negative_eigenvalue_beyond_the_rule_is_kept(self):
        # -1e-9 is valid (above EIG_FLOOR) but not within 4 d eps of 0
        A = np.diag([-1e-9, 0.0, 1.0 + 1e-9]).astype(complex)
        assert np.array_equal(validate_density(A).eigenvalues, [-1e-9, 0.0, 1.0 + 1e-9])
