import math
import tracemalloc

import numpy as np
import pytest

from jensengeo.bounds import (
    bound_report,
    chain_check,
    diagram,
    diagram_to_csv,
    homotopy_pair,
    lower_L,
    lower_witness_pair,
    q_bound_report,
    upper_curve_value,
    upper_U2,
    upper_Un,
    upper_witness_pair,
)
from jensengeo.classical import random_distribution, total_variation
from jensengeo.jensen import jd_alpha, qjd_alpha
from jensengeo.quantum import ginibre_state, random_pure_state, trace_distance

LN2 = math.log(2.0)


class TestLowerL:
    def test_zero(self):
        assert lower_L(0.0, 1.3) == pytest.approx(0.0, abs=1e-15)

    def test_max_at_order_one(self):
        assert lower_L(2.0, 1.0) == pytest.approx(LN2, abs=1e-15)

    def test_order_two(self):
        # s_2(1/2) - s_2(3/4) = 1/2 - 3/8
        assert lower_L(1.0, 2.0) == pytest.approx(0.125, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lower_L(2.5, 1.0)
        with pytest.raises(ValueError):
            lower_L(-0.1, 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.7, 2.0])
    def test_attained_by_witness(self, alpha):
        for v in np.linspace(0.0, 2.0, 21):
            p, q = lower_witness_pair(float(v))
            assert total_variation(p, q) == pytest.approx(v, abs=1e-14)
            assert jd_alpha(p, q, alpha).value == pytest.approx(
                lower_L(float(v), alpha), abs=1e-13
            )


class TestUpperUn:
    def test_identical(self):
        assert upper_Un([0.5, 0.5], [0.5, 0.5], 1.5) == 0.0

    def test_three_letter_attainment(self):
        v, a = 1.0, 2.0
        p, q = upper_witness_pair(v, 3)
        assert upper_Un(p, q, a) == pytest.approx(jd_alpha(p, q, a).value, abs=1e-14)
        assert upper_Un(p, q, a) == pytest.approx(0.125, abs=1e-14)

    def test_order_one_limit_coefficient(self):
        # coefficient (1/(a-1))(1/2 - 2^-a) -> (ln 2)/2
        p, q = [0.2, 0.5, 0.3], [0.4, 0.1, 0.5]
        assert upper_Un(p, q, 1.0) == pytest.approx(
            (LN2 / 2.0) * total_variation(p, q), abs=1e-14
        )
        assert upper_Un(p, q, 1.0 + 1e-6) == pytest.approx(upper_Un(p, q, 1.0), abs=2e-6)

    @pytest.mark.parametrize("delta", [1e-10, 1e-12, 1e-14])
    def test_stable_across_order_one(self, delta):
        # |d/da ln U_n| < 3 at a = 1 here, so the true gap to the limit is below 3 delta
        p, q = [0.2, 0.5, 0.3], [0.4, 0.1, 0.5]
        limit = upper_Un(p, q, 1.0)
        for a in (1.0 - delta, 1.0 + delta):
            assert upper_Un(p, q, a) == pytest.approx(limit, rel=3 * delta + 1e-14)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_dominates_divergence_any_alphabet(self, alpha):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p, q = random_distribution(n, rng), random_distribution(n, rng)
            assert jd_alpha(p, q, alpha).value <= upper_Un(p, q, alpha) + 1e-10


class TestUpperU2:
    def test_zero(self):
        assert upper_U2(0.0, 1.7) == pytest.approx(0.0, abs=1e-15)

    def test_max_order_one(self):
        # s_1(1/2) - s_1(1)/2 = ln 2
        assert upper_U2(2.0, 1.0) == pytest.approx(LN2, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.7, 2.0])
    def test_attained_by_extreme_pair(self, alpha):
        for v in np.linspace(0.0, 2.0, 21):
            p, q = upper_witness_pair(float(v), 2)
            assert total_variation(p, q) == pytest.approx(v, abs=1e-14)
            assert jd_alpha(p, q, alpha).value == pytest.approx(
                upper_U2(float(v), alpha), abs=1e-13
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_dominates_two_letter_divergence(self, alpha):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p, q = random_distribution(2, rng), random_distribution(2, rng)
            v = total_variation(p, q)
            assert jd_alpha(p, q, alpha).value <= upper_U2(v, alpha) + 1e-12


class TestBoundReport:
    def test_identical_inputs(self):
        rep = bound_report([0.3, 0.7], [0.3, 0.7], 1.5)
        assert (rep.lower, rep.value, rep.upper) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.7, 2.0])
    def test_two_letter_sandwich(self, alpha):
        rng = np.random.default_rng(3)
        for _ in range(500):
            p, q = random_distribution(2, rng), random_distribution(2, rng)
            rep = bound_report(p, q, alpha)
            assert rep.upper_kind == "two_letter"
            assert rep.lower - 1e-10 <= rep.value <= rep.upper + 1e-10

    def test_order_one_sandwich_any_alphabet(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(3, 7))
            p, q = random_distribution(n, rng), random_distribution(n, rng)
            rep = bound_report(p, q, 1.0)
            assert rep.upper_kind == "alpha_norm"
            assert rep.lower - 1e-10 <= rep.value <= rep.upper + 1e-10

    def test_lower_bound_fails_beyond_two_letters(self):
        # documented counterexample: the two-letter lower bound does not
        # extend to larger alphabets away from order 1. Here
        # JD_2 = ||P-Q||_2^2 / 4 = 1/4 while L(V=2) = s_2(1/2) - s_2(1) = 1/2,
        # so the report gives B_4(2) = (2 * 4 / 32)(1/2 + 1/2) = 1/4 instead.
        p = [0.5, 0.5, 0.0, 0.0]
        q = [0.0, 0.0, 0.5, 0.5]
        rep = bound_report(p, q, 2.0)
        assert rep.value == pytest.approx(0.25, abs=1e-14)
        assert lower_L(rep.v, 2.0) == pytest.approx(0.5, abs=1e-14)
        assert rep.value < lower_L(rep.v, 2.0)  # L is NOT a bound here
        assert rep.lower == pytest.approx(0.25, abs=1e-12)
        assert rep.lower - 1e-12 <= rep.value <= rep.upper + 1e-12
        assert rep.lower_witness is None  # the witness pair attains only L

    def test_witnesses_recorded(self):
        rep = bound_report([0.2, 0.8], [0.6, 0.4], 1.5)
        pw, qw = rep.lower_witness
        assert jd_alpha(pw, qw, 1.5).value == pytest.approx(rep.lower, abs=1e-13)


class TestQuantumBoundReport:
    def test_identical(self):
        rho = np.eye(2) / 2.0
        rep = q_bound_report(rho, rho, 1.5)
        assert (rep.lower, rep.value, rep.upper) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_orthogonal_pures_upper_tight(self):
        rep = q_bound_report(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 1.0)
        assert rep.v == pytest.approx(2.0, abs=1e-12)
        assert rep.value == pytest.approx(LN2, abs=1e-12)
        assert rep.upper == pytest.approx(LN2, abs=1e-12)
        assert rep.lower <= rep.value <= rep.upper + 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_qubit_sandwich(self, alpha):
        rng = np.random.default_rng(5)
        for _ in range(300):
            r1, r2 = ginibre_state(2, rng), ginibre_state(2, rng)
            rep = q_bound_report(r1, r2, alpha)
            assert rep.lower - 1e-9 <= rep.value
            if alpha >= 1.0:
                assert rep.value <= rep.upper + 1e-9

    def test_d3_sandwich_order_one(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            r1, r2 = ginibre_state(3, rng), ginibre_state(3, rng)
            rep = q_bound_report(r1, r2, 1.0)
            assert rep.lower - 1e-9 <= rep.value <= rep.upper + 1e-9

    def test_d3_lower_fails_away_from_order_one(self):
        # documented counterexample (commuting states, so it reduces to the
        # classical three-letter failure): QJD_2 = 1/24 < L(T=2/3) = 1/18,
        # so the report gives B_3(2/3) = (2 (4/9) / 32)(1 + 1/2) = 1/24 instead
        r1 = np.diag([1 / 2, 1 / 3, 1 / 6])
        r2 = np.diag([1 / 3, 1 / 6, 1 / 2])
        rep = q_bound_report(r1, r2, 2.0)
        assert rep.v == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rep.value == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert lower_L(rep.v, 2.0) == pytest.approx(1.0 / 18.0, abs=1e-12)
        assert rep.value < lower_L(rep.v, 2.0)  # L is NOT a bound here
        assert rep.lower == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert rep.lower - 1e-12 <= rep.value <= rep.upper + 1e-12


class TestProvenLowerBound:
    """B_n(v) = (a v^2 / 32)(1/floor(n/2) + 1/ceil(n/2)) for n >= 3 at orders
    in (0, 2], and 0 beyond order 2 (see the bounds module docstring)."""

    @pytest.mark.parametrize("kind", ["ginibre", "pure", "classical"])
    def test_sandwich_beyond_two(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(3, 7))
            alpha = 2.0 - float(rng.uniform(0.0, 2.0))  # in (0, 2]
            if kind == "ginibre":
                rep = q_bound_report(ginibre_state(n, rng), ginibre_state(n, rng), alpha)
            elif kind == "pure":
                rep = q_bound_report(random_pure_state(n, rng), random_pure_state(n, rng), alpha)
            else:
                rep = bound_report(random_distribution(n, rng), random_distribution(n, rng), alpha)
                assert rep.lower_witness is None
            b = (alpha * rep.v**2 / 32.0) * (1.0 / (n // 2) + 1.0 / ((n + 1) // 2))
            assert rep.lower == pytest.approx(b, rel=1e-12)
            assert 0.0 < rep.lower <= rep.value + 1e-12

    def test_attained_at_order_two(self):
        # both README counterexamples to L sit exactly on B_n
        rep = bound_report([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], 2.0)
        assert rep.lower == pytest.approx(0.25, abs=1e-12)
        assert rep.value == pytest.approx(rep.lower, abs=1e-12)
        rep = q_bound_report(np.diag([1 / 2, 1 / 3, 1 / 6]), np.diag([1 / 3, 1 / 6, 1 / 2]), 2.0)
        assert rep.lower == pytest.approx(1.0 / 24.0, abs=1e-12)
        assert rep.value == pytest.approx(rep.lower, abs=1e-12)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_zero_beyond_order_two(self, alpha):
        rng = np.random.default_rng(13)
        for n in [2, 3, 4]:
            rep = bound_report(random_distribution(n, rng), random_distribution(n, rng), alpha)
            assert rep.lower == 0.0 and rep.lower_witness is None
            assert rep.value >= 0.0
            rep = q_bound_report(ginibre_state(n, rng), ginibre_state(n, rng), alpha)
            assert rep.lower == 0.0
            assert rep.value >= 0.0

    def test_L_fails_for_two_letters_beyond_order_two(self):
        # why no distance bound is reported beyond order 2: at order 2.5
        # JD((1/2,1/2), (0,1)) = 0.1056 < L(1) = 0.1099
        p, q = upper_witness_pair(1.0, 2)
        assert jd_alpha(p, q, 2.5).value < lower_L(1.0, 2.5) - 1e-3

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
    def test_diagonal_states_match_classical(self, alpha):
        rng = np.random.default_rng(14)
        for n in [3, 4, 5]:
            p, q = random_distribution(n, rng), random_distribution(n, rng)
            crep = bound_report(p, q, alpha)
            qrep = q_bound_report(np.diag(p.probs), np.diag(q.probs), alpha)
            assert qrep.lower == pytest.approx(crep.lower, abs=1e-12)


class TestChain:
    def test_identical(self):
        ch = chain_check([0.5, 0.5], [0.5, 0.5], 1.5)
        assert all(abs(x) < 1e-15 for x in ch)

    def test_antipodal_order_one(self):
        ch = chain_check([1.0, 0.0], [0.0, 1.0], 1.0)
        assert ch.v_sq_over_8 == pytest.approx(0.5, abs=1e-15)
        assert ch.alpha_v_sq_over_8 == pytest.approx(0.5, abs=1e-15)
        assert ch.jd == pytest.approx(LN2, abs=1e-15)
        assert ch.alpha_norm_upper == pytest.approx(LN2, abs=1e-15)
        assert ch.tv_upper == pytest.approx(LN2, abs=1e-15)
        assert ch.v_sq_over_8 <= ch.alpha_v_sq_over_8 <= ch.jd <= ch.alpha_norm_upper <= ch.tv_upper

    def test_full_monotone_at_order_one(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            p, q = random_distribution(n, rng), random_distribution(n, rng)
            ch = chain_check(p, q, 1.0)
            assert (
                ch.v_sq_over_8 - 1e-12
                <= ch.alpha_v_sq_over_8
                <= ch.jd + 1e-12
                <= ch.alpha_norm_upper + 2e-12
                <= ch.tv_upper + 3e-12
            )

    @pytest.mark.parametrize("alpha", [1.0, 1.3, 1.7, 2.0])
    def test_valid_links_any_alphabet(self, alpha):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p, q = random_distribution(n, rng), random_distribution(n, rng)
            ch = chain_check(p, q, alpha)
            assert ch.v_sq_over_8 <= ch.alpha_v_sq_over_8 + 1e-12
            assert ch.jd <= ch.alpha_norm_upper + 1e-10
            assert ch.alpha_norm_upper <= ch.tv_upper + 1e-10

    @pytest.mark.parametrize("alpha", [1.0, 1.3, 1.7, 2.0])
    def test_lower_link_on_two_letters(self, alpha):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p, q = random_distribution(2, rng), random_distribution(2, rng)
            ch = chain_check(p, q, alpha)
            assert ch.v_sq_over_8 <= ch.jd + 1e-12

    def test_middle_link_fails_away_from_order_one(self):
        # alpha V^2/8 exceeds JD_alpha already on the two-letter lower
        # witness: the V-normalization makes that link order-1 only
        p, q = lower_witness_pair(1.0)
        ch = chain_check(p, q, 2.0)
        assert ch.alpha_v_sq_over_8 > ch.jd

    def test_topology_equivalence_links(self):
        # JD -> 0 iff V -> 0, via V^2/8 <= JD (two letters) and JD <= (ln2/2) V
        rng = np.random.default_rng(10)
        for _ in range(100):
            p, q = random_distribution(2, rng), random_distribution(2, rng)
            ch = chain_check(p, q, 1.3)
            v = math.sqrt(8.0 * ch.v_sq_over_8)
            assert ch.jd >= v**2 / 8.0 - 1e-12
            assert ch.jd <= (LN2 / 2.0) * v + 1e-12

    def test_order_domain(self):
        with pytest.raises(ValueError):
            chain_check([0.5, 0.5], [0.4, 0.6], 2.5)
        with pytest.raises(ValueError):
            chain_check([0.5, 0.5], [0.4, 0.6], 0.5)


class TestDiagram:
    def test_curve_endpoints(self):
        pts = diagram(1.0, 3, 11)
        assert pts.curve_lower[0] == (0.0, pytest.approx(0.0, abs=1e-15))
        assert pts.curve_upper[0] == (0.0, pytest.approx(0.0, abs=1e-15))
        # at order 1 and n >= 3 the region pinches at v = 2
        assert pts.curve_lower[-1][1] == pytest.approx(LN2, abs=1e-12)
        assert pts.curve_upper[-1][1] == pytest.approx(LN2, abs=1e-12)

    def test_homotopy_samples_between_curves(self):
        pts = diagram(1.0, 3, 15)
        for t, v, jd in pts.homotopy_samples:
            assert jd >= lower_L(v, 1.0) - 1e-9
            assert jd <= upper_curve_value(v, 1.0, 3) + 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.0 + 1e-12, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_curves_equal_scalar_calls(self, alpha, n):
        pts = diagram(alpha, n, 23)
        for (v, lo), (vu, up) in zip(pts.curve_lower, pts.curve_upper):
            assert v == vu
            assert abs(lo - lower_L(v, alpha)) <= 1e-15
            assert abs(up - upper_curve_value(v, alpha, n)) <= 1e-15
            if n == 2:
                assert abs(up - upper_U2(v, alpha)) <= 1e-15

    def test_endpoint_rows_reproduce_curves(self):
        pts = diagram(1.0, 3, 15)
        lower_rows = [s for s in pts.homotopy_samples if s[0] == 0.0]
        upper_rows = [s for s in pts.homotopy_samples if s[0] == 1.0]
        for (_, v, jd), (vc, jc) in zip(lower_rows, pts.curve_lower):
            assert v == pytest.approx(vc, abs=1e-12)
            assert jd == pytest.approx(jc, abs=1e-12)
        for (_, v, jd), (vc, jc) in zip(upper_rows, pts.curve_upper):
            assert v == pytest.approx(vc, abs=1e-12)
            assert jd == pytest.approx(jc, abs=1e-12)

    @pytest.mark.parametrize("delta", [1e-10, 1e-12, 1e-14])
    def test_upper_curve_stable_across_order_one(self, delta):
        # |d/da ln| < 3 at a = 1 for these v, so the true gap to the limit is below 3 delta
        for v in (0.5, 1.0, 2.0):
            limit = upper_curve_value(v, 1.0, 3)
            for a in (1.0 - delta, 1.0 + delta):
                assert upper_curve_value(v, a, 3) == pytest.approx(limit, rel=3 * delta + 1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.0 + 1e-12, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_samples_equal_pairwise_calls(self, alpha, n):
        grid = 7
        pts = diagram(alpha, n, grid)
        ts = np.linspace(0.0, 1.0, grid)
        vs = np.linspace(0.0, 2.0, grid)
        expected = [(t, v) for t in ts for v in vs]
        assert len(pts.homotopy_samples) == grid * grid
        for (t, v), sample in zip(expected, pts.homotopy_samples):
            p, q = homotopy_pair(float(t), float(v), n)
            assert sample[0] == t
            assert sample[1] == pytest.approx(total_variation(p, q), abs=1e-15)
            assert sample[2] == pytest.approx(jd_alpha(p, q, alpha).value, abs=1e-15)

    def test_two_letter_upper_curve(self):
        pts = diagram(1.3, 2, 9)
        for v, jd in pts.curve_upper:
            assert jd == pytest.approx(upper_U2(v, 1.3), abs=1e-13)

    def test_homotopy_pair_total_variation_dips(self):
        # interior deformation sweeps below the endpoint total variation
        p, q = homotopy_pair(0.5, 2.0, 3)
        assert total_variation(p, q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3, 2.0])
    def test_two_letter_homotopy_contained(self, alpha):
        pts = diagram(alpha, 2, 20)
        for _, v, jd in pts.homotopy_samples:
            assert lower_L(v, alpha) - 1e-12 <= jd <= upper_U2(v, alpha) + 1e-12

    @pytest.mark.parametrize(
        "alpha, below", [(0.5, 0), (1.0, 0), (2.0, 0), (2.2, 342), (2.5, 342), (2.8, 342)]
    )
    def test_two_letter_lower_curve_holds_only_up_to_order_two(self, alpha, below):
        # L bounds the two-letter samples at orders in (0, 2], as proven; in (2, 3) most dip below
        pts = diagram(alpha, 2, 20)
        count = sum(jd < lower_L(v, alpha) - 1e-12 for _, v, jd in pts.homotopy_samples)
        assert count == below

    def test_interior_dips_below_lower_curve_beyond_order_one(self):
        # the flip side of the lower bound's n >= 3 failure: the sampled
        # joint range extends below the two-letter lower curve at order 2
        pts = diagram(2.0, 4, 20)
        assert any(jd < lower_L(v, 2.0) - 1e-6 for _, v, jd in pts.homotopy_samples)

    def test_csv_format(self):
        pts = diagram(1.0, 3, 3)
        text = diagram_to_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == "curve,t,v,jd"
        assert len(lines) == 1 + 3 + 3 + 9
        assert lines[1].startswith("lower,0.0,")
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"lower", "upper", "homotopy"}

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            diagram(1.0, 3, 1)
        with pytest.raises(ValueError):
            diagram(1.0, 1, 5)

    def test_huge_grid_rejected_before_allocation(self):
        # np.linspace alone would ask for 8 TB at this grid, so a missing cap
        # fails at once with a MemoryError instead of running out of memory
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap"):
                diagram(1.0, 3, 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestQuantumAgainstClassicalDiagonal:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_diagonal_states_reduce(self, alpha):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p, q = random_distribution(2, rng), random_distribution(2, rng)
            crep = bound_report(p, q, alpha)
            qrep = q_bound_report(
                np.diag(p.probs).astype(complex), np.diag(q.probs).astype(complex), alpha
            )
            assert qrep.v == pytest.approx(crep.v, abs=1e-12)
            assert qrep.value == pytest.approx(crep.value, abs=1e-10)
            assert qrep.lower == pytest.approx(crep.lower, abs=1e-12)


# seeded report inputs: orders on both sides of 1 and 2, and alphabets of 2, 3 and 5 letters
REPORT_ORDERS = [0.5, 1.0, 1.0 + 1e-12, 1.5, 2.0, 2.5]
REPORT_SIZES = [2, 3, 5]


def _bits(x) -> bytes:
    """The exact float64 bytes of a scalar or array, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=float).tobytes()


def _pairs_with_zeros(n: int, seed: int, count: int = 8):
    """Seeded raw distribution pairs; each distribution has one zero entry."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        P = rng.dirichlet(np.ones(n), size=2)
        P[0, rng.integers(n)] = 0.0
        P[1, rng.integers(n)] = 0.0
        P /= P.sum(axis=1, keepdims=True)
        yield P[0].tolist(), P[1].tolist()


def _state_pairs(d: int, seed: int, count: int = 4):
    """Seeded raw state pairs: Ginibre (full rank), pure (zero eigenvalues) and one of each."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield ginibre_state(d, rng).matrix, ginibre_state(d, rng).matrix
        yield random_pure_state(d, rng).matrix, random_pure_state(d, rng).matrix
        yield ginibre_state(d, rng).matrix, random_pure_state(d, rng).matrix


class TestReportsEqualScalars:
    """Each report field equals, bit for bit, the public scalar that computes it alone."""

    @pytest.mark.parametrize("alpha", REPORT_ORDERS)
    @pytest.mark.parametrize("n", REPORT_SIZES)
    def test_bound_report(self, alpha, n):
        for p, q in _pairs_with_zeros(n, seed=21 + n):
            rep = bound_report(p, q, alpha)
            v = total_variation(p, q)
            assert _bits(rep.v) == _bits(v)
            assert _bits(rep.value) == _bits(jd_alpha(p, q, alpha).value)
            upper = upper_U2(v, alpha) if n == 2 else upper_Un(p, q, alpha)
            assert _bits(rep.upper) == _bits(upper)
            assert rep.alpha == alpha
            assert rep.upper_kind == ("two_letter" if n == 2 else "alpha_norm")
            assert list(map(_bits, rep.upper_witness)) == list(map(_bits, upper_witness_pair(v, n)))
            if rep.lower_witness is not None:
                assert _bits(rep.lower) == _bits(lower_L(v, alpha))
                assert list(map(_bits, rep.lower_witness)) == list(
                    map(_bits, lower_witness_pair(v, n))
                )

    @pytest.mark.parametrize("alpha", REPORT_ORDERS)
    @pytest.mark.parametrize("d", REPORT_SIZES)
    def test_q_bound_report(self, alpha, d):
        for r1, r2 in _state_pairs(d, seed=31 + d):
            rep = q_bound_report(r1, r2, alpha)
            t = trace_distance(r1, r2)
            assert _bits(rep.v) == _bits(t)
            assert _bits(rep.value) == _bits(qjd_alpha(r1, r2, alpha).value)
            assert _bits(rep.upper) == _bits((LN2 / 2.0) * t)
            if (d == 2 and alpha <= 2.0) or alpha == 1.0:
                assert _bits(rep.lower) == _bits(lower_L(t, alpha))
            assert rep.lower_witness is None and rep.upper_witness is None

    @pytest.mark.parametrize("alpha", [a for a in REPORT_ORDERS if 1.0 <= a <= 2.0])
    @pytest.mark.parametrize("n", REPORT_SIZES)
    def test_chain_check(self, alpha, n):
        for p, q in _pairs_with_zeros(n, seed=41 + n):
            ch = chain_check(p, q, alpha)
            v = total_variation(p, q)
            assert _bits(ch.v_sq_over_8) == _bits(v**2 / 8.0)
            assert _bits(ch.alpha_v_sq_over_8) == _bits(alpha * v**2 / 8.0)
            assert _bits(ch.jd) == _bits(jd_alpha(p, q, alpha).value)
            assert _bits(ch.alpha_norm_upper) == _bits(upper_Un(p, q, alpha))
            assert _bits(ch.tv_upper) == _bits((LN2 / 2.0) * v)

    @pytest.mark.parametrize(
        "p, q",
        [
            ([0.5, 0.5], [0.2, 0.3, 0.5]),
            (
                {"probs": [0.4, 0.6], "labels": ["a", "b"]},
                {"probs": [0.5, 0.5], "labels": ["b", "a"]},
            ),
            ([0.5, 0.6], [0.5, 0.5]),
            ([0.5, 0.5], [1.5, -0.5]),
        ],
    )
    def test_classical_errors_match_jd_alpha(self, p, q):
        with pytest.raises(ValueError) as expected:
            jd_alpha(p, q, 1.5)
        for report in (bound_report, chain_check):
            with pytest.raises(ValueError) as got:
                report(p, q, 1.5)
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "r1, r2",
        [
            (np.eye(2) / 2.0, np.eye(3) / 3.0),
            (np.eye(2) / 2.0, np.diag([1.2, -0.2])),
            (np.diag([1.2, -0.2]), [[0.5, 0.1], [0.2, 0.5]]),
        ],
    )
    def test_quantum_errors_match_qjd_alpha(self, r1, r2):
        with pytest.raises(ValueError) as expected:
            qjd_alpha(r1, r2, 1.5)
        with pytest.raises(ValueError) as got:
            q_bound_report(r1, r2, 1.5)
        assert str(got.value) == str(expected.value)
