import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jensengeo
from jensengeo.classical import alpha_entropy, random_distribution
from jensengeo.geometry import (
    COUNTEREXAMPLE_TRIPLE,
    DistanceMatrix,
    NegativeTypeError,
    as_distance_matrix,
    cayley_menger_det,
    cm_leading_sign,
    cm_sign_prediction,
    counterexample_energy,
    counterexample_numerator,
    divergence_matrix,
    embed,
    exp_convexity_check,
    menger_embeddability,
    midpoint_kernel,
    negative_type_check,
    power_integral,
    quadruple_cm_determinant,
    quadruple_distributions,
    s_alpha_even_derivative,
    sum_zero_basis,
    triangle_gap,
)
from jensengeo.jensen import jd_alpha, qjd_alpha
from jensengeo.quantum import alpha_entropy_q, ginibre_state, random_pure_state, trace_exp_qubit
from jensengeo.tolerances import tolerance_scale

LN2 = math.log(2.0)
# triangle defect of the canonical triple at order 2.5: numerator / 1.5
E_25 = 0.008597991156777112
# order -> 1 limit of the defect, 3 ln 3 - 5 ln 2
E_1 = -0.16989903679539747


def jd_matrix_of_triple(alpha):
    return divergence_matrix([np.array(p) for p in COUNTEREXAMPLE_TRIPLE], alpha)


class TestDistanceMatrixValidation:
    def test_wire_mapping(self):
        dm = as_distance_matrix({"n": 2, "d": [[0.0, 1.0], [1.0, 0.0]]})
        assert dm.n == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            as_distance_matrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            as_distance_matrix([[0.5, 1.0], [1.0, 0.0]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            as_distance_matrix([[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize(
        "obj, message",
        [({"n": 3, "d": [[0, 1], [1, 0]]}, '"n" does not match'),
         ([[0, math.nan], [math.nan, 0]], "must be finite")],
    )
    def test_rejects_a_wrong_size_or_a_nan(self, obj, message):
        with pytest.raises(ValueError, match=message):
            as_distance_matrix(obj)

    def test_repairs_float_noise(self):
        dm = as_distance_matrix([[0.0, -1e-13], [-1e-13, 0.0]])
        assert dm.d[0, 1] == 0.0

    @pytest.mark.parametrize(
        "n, d",
        # true equals 1, the size of the last matrix
        [(2.7, [[0, 1], [1, 0]]), (2.0, [[0, 1], [1, 0]]), ("2", [[0, 1], [1, 0]]),
         (None, [[0, 1], [1, 0]]), ([2], [[0, 1], [1, 0]]), (True, [[0]])],
    )
    def test_wire_size_must_be_an_integer(self, n, d):
        with pytest.raises(ValueError, match='"n" must be an integer'):
            as_distance_matrix({"n": n, "d": d})


class TestDivergenceMatrix:
    def test_identical_points(self):
        dm = divergence_matrix([[0.5, 0.5], [0.5, 0.5]], 1.0)
        assert np.allclose(dm.d, 0.0)

    def test_antipodal_pair(self):
        dm = divergence_matrix([[1.0, 0.0], [0.0, 1.0]], 1.0)
        assert dm.d[0, 1] == pytest.approx(LN2, abs=1e-15)

    def test_triple_matches_closed_form(self):
        dm = jd_matrix_of_triple(1.0)
        skew = jd_alpha([0.0, 1.0], [0.5, 0.5], 1.0).value
        assert dm.d[0, 1] == pytest.approx(skew, abs=1e-15)
        assert dm.d[1, 2] == pytest.approx(skew, abs=1e-15)
        assert dm.d[0, 2] == pytest.approx(LN2, abs=1e-15)

    def test_quantum_points(self):
        rng = np.random.default_rng(0)
        pts = [ginibre_state(2, rng) for _ in range(3)]
        dm = divergence_matrix(pts, 1.5)
        assert dm.n == 3 and np.all(dm.d >= 0.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            divergence_matrix([[1.0, 0.0]], 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["zero_entries", "pure", "mixed"])
    def test_entries_equal_pairwise_calls(self, kind, alpha):
        rng = np.random.default_rng(9)
        if kind == "zero_entries":
            P = np.where(rng.random((7, 5)) < 0.4, 0.0, rng.dirichlet(np.ones(5), size=7))
            P[:, 0] += 0.05  # no row is all zeros
            pts = list(P / P.sum(axis=1, keepdims=True)) + [np.eye(5)[0], np.eye(5)[1]]
            div, entropy, raw = jd_alpha, alpha_entropy, (lambda x: x)
        else:
            make = random_pure_state if kind == "pure" else ginibre_state
            pts = [make(3, rng) for _ in range(7)]
            div, entropy, raw = qjd_alpha, alpha_entropy_q, (lambda x: x.matrix)
        # below order 1, eigenvalue noise of size d eps on the zero eigenvalues of
        # a state is raised to the power alpha; d = 3 here
        tol = 1e-14 if kind == "zero_entries" or alpha >= 1.0 else 3 * 6.6e-16**alpha / (1 - alpha)
        D = divergence_matrix(pts, alpha).d
        assert np.all(np.diag(D) == 0.0) and np.array_equal(D, D.T)
        for i, j in itertools.combinations(range(len(pts)), 2):
            x, y = raw(pts[i]), raw(pts[j])
            assert abs(D[i, j] - max(div(x, y, alpha).value, 0.0)) <= 1e-15
            # the definition, one entropy call at a time
            gap = entropy(0.5 * x + 0.5 * y, alpha) - (entropy(x, alpha) + entropy(y, alpha)) / 2
            assert D[i, j] == pytest.approx(max(gap, 0.0), abs=tol)

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match=r"mixed lengths: \[2, 3\]"):
            divergence_matrix([[0.5, 0.5], [0.2, 0.3, 0.5]], 1.0)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match=r"mixed dimensions: \[2, 3\]"):
            divergence_matrix([np.eye(2) / 2.0, np.eye(3) / 3.0, np.eye(2) / 2.0], 1.0)

    def test_rejects_states_among_distributions(self):
        with pytest.raises(ValueError, match="1-D"):
            divergence_matrix([[0.5, 0.5], np.eye(2) / 2.0], 1.0)


class TestNegativeType:
    def test_sum_zero_basis(self):
        for n in (2, 3, 5, 8):
            W = sum_zero_basis(n)
            assert np.allclose(W.T @ W, np.eye(n - 1), atol=1e-14)
            assert np.allclose(W.T @ np.ones(n), 0.0, atol=1e-14)

    def test_sum_zero_basis_matches_the_column_formula(self):
        # column k - 1 built one at a time: k ones, then -k, scaled by 1/sqrt(k (k + 1))
        for n in range(1, 41):
            loop = np.zeros((n, n - 1))
            for k in range(1, n):
                loop[:k, k - 1] = 1.0
                loop[k, k - 1] = -float(k)
                loop[:, k - 1] /= math.sqrt(k * (k + 1))
            assert np.array_equal(sum_zero_basis(n), loop)

    def test_two_points_always_negative_type(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = float(rng.uniform(0, 10))
            rep = negative_type_check([[0.0, t], [t, 0.0]])
            assert rep.is_negative_type

    def test_random_divergence_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pts = [random_distribution(4, rng) for _ in range(8)]
            rep = negative_type_check(divergence_matrix(pts, 1.5))
            assert rep.is_negative_type

    def test_triple_fails_at_alpha_25(self):
        rep = negative_type_check(jd_matrix_of_triple(2.5))
        assert not rep.is_negative_type
        c = rep.witness_vector
        assert c is not None
        assert abs(c.sum()) <= 1e-12
        D = jd_matrix_of_triple(2.5).d
        assert c @ D @ c > 0.0

    def test_witness_quadratic_form_matches_eigenvalue(self):
        rep = negative_type_check(jd_matrix_of_triple(2.5))
        D = jd_matrix_of_triple(2.5).d
        assert rep.witness_vector @ D @ rep.witness_vector == pytest.approx(
            -2.0 * rep.min_eigenvalue, abs=1e-12
        )


class TestCentredEigenpairsShared:
    """negative_type_check and embed on one DistanceMatrix share one eigendecomposition."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_one_eigh_for_check_then_embed(self, decompositions, alpha):
        rng = np.random.default_rng(44)
        dm = divergence_matrix([random_distribution(4, rng) for _ in range(9)], alpha)
        report = negative_type_check(dm)
        emb = embed(dm)
        assert decompositions["eigh"] == 1
        assert report.is_negative_type
        again = embed(dm.d.copy())
        assert decompositions["eigh"] == 2
        assert np.array_equal(emb.coords, again.coords)
        assert emb.reconstruction_error == again.reconstruction_error

    def test_report_follows_the_tolerance_of_each_call(self, monkeypatch, decompositions):
        dm = jd_matrix_of_triple(2.5)
        assert not negative_type_check(dm, tol=1e-12).is_negative_type
        assert negative_type_check(dm, tol=10.0).is_negative_type
        monkeypatch.setenv("JG_TOLERANCE_SCALE", "1e12")
        assert negative_type_check(dm).is_negative_type
        assert decompositions["eigh"] == 1

    def test_in_place_writes_are_seen(self):
        rng = np.random.default_rng(45)
        pts = [random_distribution(3, rng) for _ in range(7)]
        dm = divergence_matrix(pts, 1.0)
        assert negative_type_check(dm).is_negative_type
        other = divergence_matrix(pts, 2.0).d
        dm.d[...] = other
        fresh = embed(other.copy())
        emb = embed(dm)
        assert np.array_equal(emb.coords, fresh.coords)
        assert emb.reconstruction_error == fresh.reconstruction_error
        # one entry rewritten in place, and the diagonal by np.fill_diagonal
        dm.d[0, 1] = dm.d[1, 0] = 4.0 * dm.d[0, 1]
        for _ in range(2):
            report = negative_type_check(dm)
            fresh = negative_type_check(DistanceMatrix(d=dm.d.copy()))
            assert report.min_eigenvalue == fresh.min_eigenvalue
            assert np.array_equal(report.witness_vector, fresh.witness_vector)
            np.fill_diagonal(dm.d, 1.0)
        assert not report.is_negative_type

    def test_witness_of_a_refuted_matrix(self):
        dm = jd_matrix_of_triple(2.5)
        report = negative_type_check(dm)
        with pytest.raises(NegativeTypeError) as err:
            embed(dm)
        assert np.array_equal(err.value.report.witness_vector, report.witness_vector)
        assert err.value.report.min_eigenvalue == report.min_eigenvalue

    def test_sum_zero_basis_stays_fresh_and_writable(self):
        dm = divergence_matrix([np.array(p) for p in COUNTEREXAMPLE_TRIPLE], 1.0)
        embed(dm)
        W = sum_zero_basis(3)
        W[...] = 0.0
        assert not np.array_equal(sum_zero_basis(3), W)
        assert embed(dm).reconstruction_error <= 1e-12


class TestCayleyMenger:
    def test_equilateral_triple(self):
        # det [[D,1],[1,0]] for unit squared distances: eigenvalues of
        # (ones - I) give det = -3; the Heron product
        # (a+b+c)(b+c-a)(c+a-b)(a+b-c) = 3 equals -det = 16 Area^2
        D = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        det = cayley_menger_det(D)
        assert det == pytest.approx(-3.0, abs=1e-12)
        a = b = c = 1.0
        heron = (a + b + c) * (b + c - a) * (c + a - b) * (a + b - c)
        assert -det == pytest.approx(heron, abs=1e-12)

    def test_heron_identity_random_triangle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-1, 1, (3, 2))
            sq = lambda i, j: float(np.sum((x[i] - x[j]) ** 2))
            D = [[0, sq(0, 1), sq(0, 2)], [sq(0, 1), 0, sq(1, 2)], [sq(0, 2), sq(1, 2), 0]]
            a, b, c = math.sqrt(sq(0, 1)), math.sqrt(sq(0, 2)), math.sqrt(sq(1, 2))
            heron = (a + b + c) * (b + c - a) * (c + a - b) * (a + b - c)
            assert -cayley_menger_det(D) == pytest.approx(heron, rel=1e-9, abs=1e-12)

    def test_two_points(self):
        for t in (0.0, 0.5, 2.0):
            assert cayley_menger_det([[0.0, t], [t, 0.0]]) == pytest.approx(2.0 * t, abs=1e-12)

    def test_duplicate_points(self):
        D = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        assert cayley_menger_det(D) == pytest.approx(0.0, abs=1e-12)


class TestMengerEmbeddability:
    def test_equilateral(self):
        assert menger_embeddability([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_triple_alpha_25_not_embeddable(self):
        assert not menger_embeddability(jd_matrix_of_triple(2.5))

    def test_triple_alpha_2_embeddable(self):
        assert menger_embeddability(jd_matrix_of_triple(2.0))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="n <= 12"):
            menger_embeddability(DistanceMatrix(d=np.zeros((13, 13))))

    def test_agrees_with_negative_type_check(self):
        rng = np.random.default_rng(4)
        for alpha in (0.5, 1.0, 2.0, 2.5, 4.0):
            for _ in range(10):
                m = int(rng.integers(3, 9))
                pts = [random_distribution(3, rng) for _ in range(m)]
                dm = divergence_matrix(pts, alpha)
                assert menger_embeddability(dm) == negative_type_check(dm).is_negative_type

    @pytest.mark.parametrize(
        "eps, embeddable, negative_type", [(-1e-4, True, False), (1e-7, False, True)]
    )
    def test_edge_disagreement_with_negative_type_check(self, eps, embeddable, negative_type):
        # collinear points 0, 1, 2, 3 with D_03 moved off 9: each verdict is
        # read against its own scaled tolerance, and the two fall apart
        D = np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2
        D[0, 3] = D[3, 0] = 9.0 + eps
        assert menger_embeddability(D) == embeddable
        assert negative_type_check(D).is_negative_type == negative_type

    def test_euclidean_squared_distances_embed(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        D = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        assert menger_embeddability(D)
        assert negative_type_check(D).is_negative_type

    @staticmethod
    def subset_loop(D, tol=None):
        """The test by definition: one cayley_menger_det per subset, sizes 2..n."""
        D = np.asarray(D, dtype=float)
        n = len(D)
        dmax = max(float(np.max(D)), 0.0)
        for k in range(2, n + 1):
            sub_tol = 1e-9 * n * max(dmax, 1e-30) ** (k - 1) * tolerance_scale()
            sub_tol = sub_tol if tol is None else tol
            for idx in itertools.combinations(range(n), k):
                if (-1.0) ** k * cayley_menger_det(D[np.ix_(idx, idx)]) < -sub_tol:
                    return False
        return True

    def test_agrees_with_subset_loop(self):
        rng = np.random.default_rng(41)
        verdicts = []
        for n in range(2, 13):
            # the loop costs 2^n determinants, so the largest sizes get fewer inputs
            for r in range(26 if n <= 8 else 8 if n <= 10 else 4):
                if r % 3 == 0:
                    alpha = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)[r // 3 % 8]
                    D = divergence_matrix([random_distribution(3, rng) for _ in range(n)], alpha).d
                elif r % 3 == 1:
                    D = rng.uniform(0.0, 1.0, (n, n))
                    D = D + D.T
                else:
                    # squared Euclidean distances, symmetrically perturbed about the boundary
                    x = rng.standard_normal((n, 2))
                    E = rng.uniform(-0.05, 0.05, (n, n))
                    D = np.sum((x[:, None] - x[None]) ** 2, axis=2) + E + E.T
                    D = np.maximum(D, 0.0)
                np.fill_diagonal(D, 0.0)
                verdict = menger_embeddability(D)
                assert verdict == self.subset_loop(D), (n, r)
                verdicts.append(verdict)
        assert len(verdicts) >= 200
        assert 0 < sum(verdicts) < len(verdicts)

    def test_repeated_calls_give_the_first_verdicts(self):
        rng = np.random.default_rng(46)
        inputs = []
        for n in range(2, 13):
            x = rng.standard_normal((n, 2))
            E = rng.uniform(-0.05, 0.05, (n, n))
            D = np.maximum(np.sum((x[:, None] - x[None]) ** 2, axis=2) + E + E.T, 0.0)
            np.fill_diagonal(D, 0.0)
            inputs.append(D)
        first = [menger_embeddability(D) for D in inputs]
        assert first == [self.subset_loop(D) for D in inputs]
        assert 0 < sum(first) < len(first)
        for _ in range(2):
            assert [menger_embeddability(D) for D in inputs] == first
            assert [menger_embeddability(D) for D in reversed(inputs)] == first[::-1]

    def test_explicit_tolerance(self):
        D = jd_matrix_of_triple(2.5).d
        # the triple's only violating subset is the whole set, with (-1)^3 det < 0
        worst = -cayley_menger_det(D)
        assert worst < 0.0
        for tol in (0.0, -worst * 0.99, -worst * 1.01, 1.0):
            assert menger_embeddability(D, tol=tol) == self.subset_loop(D, tol=tol)
        assert not menger_embeddability(D, tol=-worst * 0.99)
        assert menger_embeddability(D, tol=-worst * 1.01)

    def test_twelve_euclidean_points(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((12, 3))
        D = np.sum((x[:, None] - x[None]) ** 2, axis=2)
        assert menger_embeddability(D)

    def test_twelve_points_containing_the_triple(self):
        rng = np.random.default_rng(43)
        others = [np.array([t, 1.0 - t]) for t in rng.uniform(0.0, 1.0, 9)]
        pts = others[:4] + [np.array(p) for p in COUNTEREXAMPLE_TRIPLE] + others[4:]
        dm = divergence_matrix(pts, 2.5)
        assert dm.n == 12
        assert not menger_embeddability(dm)
        assert not negative_type_check(dm).is_negative_type


class TestEmbed:
    def test_two_points(self):
        emb = embed([[0.0, 1.0], [1.0, 0.0]])
        coords = np.sort(emb.coords.ravel())
        assert np.allclose(coords, [-0.5, 0.5], atol=1e-12)
        assert emb.reconstruction_error <= 1e-12

    def test_round_trip_random_divergence_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pts = [random_distribution(4, rng) for _ in range(5)]
            dm = divergence_matrix(pts, 1.0)
            emb = embed(dm)
            assert emb.reconstruction_error <= 1e-8
            gram = emb.coords @ emb.coords.T
            sq = np.diag(gram)
            recon = sq[:, None] + sq[None, :] - 2 * gram
            assert np.max(np.abs(recon - dm.d)) <= 1e-8

    def test_failure_carries_witness(self):
        with pytest.raises(NegativeTypeError) as err:
            embed(jd_matrix_of_triple(2.5))
        assert err.value.report.witness_vector is not None

    def test_coincident_points(self):
        emb = embed(np.zeros((3, 3)))
        assert emb.reconstruction_error == 0.0
        assert np.allclose(emb.coords, 0.0)

    def test_explicit_tolerance_override(self):
        D = jd_matrix_of_triple(2.5)
        assert not negative_type_check(D, tol=1e-12).is_negative_type
        assert negative_type_check(D, tol=10.0).is_negative_type


class TestTriangleGap:
    def test_equilateral_positive(self):
        assert triangle_gap([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 0, 1, 2) > 0.0

    def test_collinear_zero(self):
        # points 0, 1, 2 on a line; squared distances 1, 1, 4
        D = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]
        assert triangle_gap(D, 0, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_triple_alpha_25_negative(self):
        assert triangle_gap(jd_matrix_of_triple(2.5), 0, 1, 2) < 0.0

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            triangle_gap([[0, 1], [1, 0]], 0, 0, 1)


class TestCounterexampleEnergy:
    def test_numerator_roots(self):
        for a in (1.0, 2.0, 3.0):
            assert abs(counterexample_numerator(a)) <= 1e-10

    def test_divided_form_roots(self):
        assert abs(counterexample_energy(2.0)) <= 1e-10
        assert abs(counterexample_energy(3.0)) <= 1e-10

    def test_value_at_25(self):
        assert counterexample_energy(2.5) == pytest.approx(E_25, abs=1e-14)

    @pytest.mark.parametrize("delta", [1e-10, 1e-12, 1e-14])
    def test_stable_across_order_one(self, delta):
        # |d/da ln E| < 3 at a = 1, so the true gap to the limit is below 3 delta
        for a in (1.0 - delta, 1.0 + delta):
            assert counterexample_energy(a) == pytest.approx(E_1, rel=3 * delta + 1e-14)

    def test_limit_at_one(self):
        assert counterexample_energy(1.0) == pytest.approx(E_1, abs=1e-13)
        assert counterexample_energy(1.0) == pytest.approx(3 * math.log(3) - 5 * LN2, abs=1e-13)

    def test_energy_is_triangle_defect(self):
        p, q, r = (np.array(x) for x in COUNTEREXAMPLE_TRIPLE)
        for a in (0.5, 1.5, 2.5, 4.0):
            defect = (
                jd_alpha(p, r, a).value
                - 2 * jd_alpha(p, q, a).value
                - 2 * jd_alpha(q, r, a).value
            )
            assert counterexample_energy(a) == pytest.approx(defect, abs=1e-12)

    def test_positive_on_violation_interval(self):
        for a in np.arange(2.05, 2.951, 0.01):
            assert counterexample_energy(float(a)) > 0.0

    def test_negative_outside(self):
        for a in (0.5, 1.5, 3.5, 4.0):
            assert counterexample_energy(a) < 0.0


class TestQuadrupleCM:
    def test_eps_range(self):
        with pytest.raises(ValueError):
            quadruple_cm_determinant(1.0, 0.2)
        with pytest.raises(ValueError):
            quadruple_cm_determinant(1.0, 0.0)

    @pytest.mark.parametrize("eps", [9.9e-7, 1e-8, 1e-170, 1e-300, 5e-324, math.nan, -1e-3])
    def test_eps_below_the_noise_floor(self, eps):
        with pytest.raises(ValueError, match="eps"):
            quadruple_cm_determinant(4.0, eps)

    def test_smallest_eps_is_finite(self):
        for a in (0.5, 1.0, 2.5, 4.0):
            assert math.isfinite(quadruple_cm_determinant(a, 1e-6))

    def test_quadruple_points_refuse_eps_out_of_range(self):
        with pytest.raises(ValueError, match="0 < eps < 1/6"):
            quadruple_distributions(0.2)

    def test_quadruple_points(self):
        pts = quadruple_distributions(0.01)
        assert [p.probs[0] for p in pts] == pytest.approx([0.47, 0.49, 0.51, 0.53])

    def test_determinant_vanishes_with_eps(self):
        a = 1.5
        assert abs(quadruple_cm_determinant(a, 1e-3)) < abs(quadruple_cm_determinant(a, 1e-2))

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 3.2, 3.4, 4.0, 5.0])
    def test_sign_matches_prediction(self, alpha):
        det = quadruple_cm_determinant(alpha, 1e-2)
        assert int(np.sign(det)) == cm_sign_prediction(alpha)

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5, 3.2, 4.0, 5.0])
    def test_leading_coefficient_oracle(self, alpha):
        # det ~ C eps^12 with C = -2^(17-3a) a^3 (a-2)^2 (a-3)^2 (a-7/2)
        a = alpha
        C = -(2.0 ** (17 - 3 * a)) * a**3 * (a - 2) ** 2 * (a - 3) ** 2 * (a - 3.5)
        eps = 1e-2
        assert quadruple_cm_determinant(a, eps) / eps**12 == pytest.approx(C, rel=2e-2)


class TestLeadingSignPolynomial:
    def test_roots(self):
        for a in (1.0, 2.0, 3.0, 3.5):
            assert cm_leading_sign(a) == pytest.approx(0.0, abs=1e-12)

    def test_positive_at_36(self):
        assert cm_leading_sign(3.6) > 0.0

    def test_prediction_is_zero_at_a_root(self):
        assert cm_sign_prediction(2.0) == 0

    def test_prediction_is_minus_sign_of_alpha_minus_72(self):
        for a in (0.5, 1.5, 2.5, 3.2, 3.4, 4.0, 5.0):
            assert cm_sign_prediction(a) == (1 if a < 3.5 else -1)


class TestEvenDerivative:
    def test_second_derivative_alpha2(self):
        # -2 * 2^(3-2) = -4
        assert s_alpha_even_derivative(1, 2.0) == pytest.approx(-4.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0, 2.5])
    @pytest.mark.parametrize("x", [0.35, 0.5])
    def test_finite_difference_oracle(self, alpha, x):
        from jensengeo.classical import binary_alpha_entropy

        h = 1e-4
        s = lambda p: binary_alpha_entropy(p, alpha)
        fd = (s(x + h) - 2 * s(x) + s(x - h)) / h**2
        assert s_alpha_even_derivative(1, alpha, x) == pytest.approx(fd, abs=1e-5, rel=1e-5)

    def test_fourth_derivative_finite_difference(self):
        from jensengeo.classical import binary_alpha_entropy

        alpha, x, h = 2.5, 0.5, 1e-2
        s = lambda p: binary_alpha_entropy(p, alpha)
        fd = (s(x - 2 * h) - 4 * s(x - h) + 6 * s(x) - 4 * s(x + h) + s(x + 2 * h)) / h**4
        assert s_alpha_even_derivative(2, alpha, x) == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize(
        "n, x, message", [(0, 0.5, "derivative order n >= 1"), (1, 1.0, "0 < x < 1")]
    )
    def test_domain(self, n, x, message):
        with pytest.raises(ValueError, match=message):
            s_alpha_even_derivative(n, 1.5, x)

    @pytest.mark.parametrize("delta", [1e-10, 1e-12, 1e-14])
    def test_stable_across_order_one(self, delta):
        # |d/da ln| < 3 at a = 1 here, so the true gap to the limit is below 3 delta
        for n in (1, 2, 3):
            for x in (0.3, 0.5):
                limit = s_alpha_even_derivative(n, 1.0, x)
                assert limit == pytest.approx(
                    -math.factorial(2 * n - 2) * (x ** (1 - 2 * n) + (1 - x) ** (1 - 2 * n)),
                    rel=1e-15,
                )
                for a in (1.0 - delta, 1.0 + delta):
                    assert s_alpha_even_derivative(n, a, x) == pytest.approx(
                        limit, rel=3 * delta + 1e-14
                    )

    def test_midpoint_closed_form(self):
        for a in (0.5, 1.5, 2.5):
            for n in (1, 2, 3):
                from jensengeo.geometry import falling_factorial

                expected = -falling_factorial(a, 2 * n) / (a - 1.0) * 2.0 ** (2 * n + 1 - a)
                assert s_alpha_even_derivative(n, a) == pytest.approx(expected, rel=1e-12)


class TestExpConvexity:
    def test_linear_kernel_centered_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            xs = rng.uniform(0, 1, int(rng.integers(2, 8)))
            rep = exp_convexity_check(lambda x: x, xs)
            assert rep.centered_min_eigenvalue >= -1e-12

    def test_exp_kernel_full_psd(self):
        rng = np.random.default_rng(8)
        for t in (0.5, 1.0, 3.0):
            for _ in range(20):
                xs = rng.uniform(0, 1, int(rng.integers(2, 8)))
                rep = exp_convexity_check(lambda x: math.exp(-t * x), xs)
                assert rep.is_positive_definite
                assert rep.min_eigenvalue >= -rep.tol

    def test_exp_kernel_square_identity(self):
        # c^T K c = (sum_i c_i e^{-t x_i / 2})^2 for K_ij = e^{-t (x_i+x_j)/2}
        rng = np.random.default_rng(9)
        t = 1.0
        xs = rng.uniform(0, 1, 6)
        K = midpoint_kernel(lambda x: math.exp(-t * x), xs)
        for _ in range(20):
            c = rng.standard_normal(6)
            assert c @ K @ c == pytest.approx(float(np.dot(c, np.exp(-t * xs / 2)) ** 2), abs=1e-12)

    def test_trace_exp_kernel_on_qubits_centered_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            states = [ginibre_state(2, rng) for _ in range(int(rng.integers(2, 7)))]
            t = float(rng.uniform(0.1, 4.0))
            rep = exp_convexity_check(lambda rho: trace_exp_qubit(rho, t), states)
            assert rep.centered_min_eigenvalue >= -rep.tol

    def test_trace_exp_kernel_on_qutrits_numeric(self):
        # exponential convexity of the trace exponential beyond qubits is
        # only checked numerically, never asserted as a theorem
        rng = np.random.default_rng(11)
        for _ in range(10):
            states = [ginibre_state(3, rng) for _ in range(4)]
            t = float(rng.uniform(0.1, 2.0))
            phi = lambda rho: float(np.sum(np.exp(-t * np.linalg.eigvalsh(rho))))
            rep = exp_convexity_check(phi, states)
            assert rep.centered_min_eigenvalue >= -rep.tol

    def test_product_closure(self):
        # Schur product of PSD kernels stays PSD
        rng = np.random.default_rng(12)
        xs = rng.uniform(0, 1, 7)
        K1 = midpoint_kernel(lambda x: math.exp(-0.7 * x), xs)
        K2 = midpoint_kernel(lambda x: math.exp(-2.1 * x), xs)
        assert np.linalg.eigvalsh(K1)[0] >= -1e-12
        assert np.linalg.eigvalsh(K2)[0] >= -1e-12
        prod = K1 * K2
        scale = float(np.max(np.abs(prod)))
        assert np.linalg.eigvalsh(prod)[0] >= -1e-9 * scale

    def test_pure_state_samples(self):
        rng = np.random.default_rng(13)
        states = [random_pure_state(3, rng) for _ in range(5)]
        t = 1.5
        phi = lambda rho: float(np.sum(np.exp(-t * np.linalg.eigvalsh(rho))))
        rep = exp_convexity_check(phi, states)
        assert rep.centered_min_eigenvalue >= -rep.tol

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            exp_convexity_check(lambda x: x, [1.0])


class TestPowerIntegral:
    def test_zero(self):
        assert power_integral(0.0, 0.5) == 0.0

    def test_unit(self):
        assert abs(power_integral(1.0, 0.5) - 1.0) <= 1e-6

    def test_fractional(self):
        assert abs(power_integral(0.7, 1.5) - 0.7**1.5) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.3, 1.5, 1.7])
    def test_grid(self, alpha):
        for x in np.arange(0.0, 2.01, 0.25):
            assert abs(power_integral(float(x), alpha) - float(x) ** alpha) <= 1e-6

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5, 0.0])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            power_integral(0.5, alpha)

    def test_negative_x(self):
        with pytest.raises(ValueError):
            power_integral(-0.1, 0.5)

    def test_tiniest_orders(self):
        # Gamma(-a) is about -1/a, finite down to a = 5.6e-309
        assert power_integral(1e150, 6e-309) == 1.0
        with pytest.raises(ValueError, match="too small"):
            power_integral(0.5, 5e-324)

    @pytest.mark.parametrize("x", [1e-301, 1e151, math.inf, math.nan])
    def test_x_out_of_range(self, x):
        with pytest.raises(ValueError):
            power_integral(x, 0.5)

    @pytest.mark.parametrize("alpha", [1.999999999, 1.9999999999999998, 1.5, 0.999999, 0.5])
    @pytest.mark.parametrize("x", [1e150, 1e100])
    def test_no_overflow_at_the_largest_x(self, x, alpha):
        # the unscaled sum of the parts is about x^a |Gamma(-a)|, above the largest double
        assert abs(power_integral(x, alpha) / x**alpha - 1.0) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("x", [1e-6, 1e-3, 10.0, 1e3])
    def test_relative_accuracy_off_unit_scale(self, x, alpha):
        assert abs(power_integral(x, alpha) / x**alpha - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.01, 0.999999, 1.000001, 1.999999])
    def test_orders_near_the_ends(self, alpha):
        for x in np.arange(0.0, 2.01, 0.25):
            assert abs(power_integral(float(x), alpha) - float(x) ** alpha) <= 1e-13

    def test_no_scipy_import(self):
        # the package and its CLI start without scipy, power_integral included
        src = str(Path(jensengeo.__file__).resolve().parents[1])
        path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        code = (
            "import sys, jensengeo, jensengeo.cli\n"
            "jensengeo.power_integral(0.7, 1.5)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
