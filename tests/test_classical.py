import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jensengeo.classical import (
    alpha_entropy,
    alpha_norm_power,
    as_distribution,
    binary_alpha_entropy,
    check_alpha,
    kl_divergence,
    random_distribution,
    shannon_entropy,
    total_variation,
)

LN2 = math.log(2.0)
# -sum p ln p for (1/4, 3/4), 40-digit arbitrary-precision evaluation
H_QUARTER = 0.5623351446188083


def normalized(values):
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()


positive_vectors = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8
)


class TestValidation:
    def test_accepts_plain_sequence(self):
        d = as_distribution([0.25, 0.75])
        assert d.probs.tolist() == [0.25, 0.75]

    def test_accepts_mapping_with_labels(self):
        d = as_distribution({"probs": [0.5, 0.5], "labels": ["a", "b"]})
        assert d.labels == ("a", "b")

    def test_clips_float_noise(self):
        d = as_distribution([1.0 + 5e-13, -5e-13])
        assert d.probs[1] == 0.0
        assert abs(d.probs.sum() - 1.0) < 1e-12

    def test_renormalizes_small_deviation(self):
        d = as_distribution([0.5 + 4e-10, 0.5])
        assert abs(d.probs.sum() - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "bad",
        [[0.6, 0.6], [0.2, 0.2], [-0.1, 1.1], [0.5, 0.5, -1e-9], [], [[0.5, 0.5]]],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            as_distribution(bad)

    @pytest.mark.parametrize(
        "fn", [kl_divergence, total_variation, lambda p, q: alpha_norm_power(p, q, 2.0)]
    )
    def test_pairs_refuse_different_labels(self, fn):
        p = {"probs": [1.0, 0.0], "labels": [1, 2]}
        with pytest.raises(ValueError, match="different labels"):
            fn(p, {"probs": [0.0, 1.0], "labels": "ab"})
        with pytest.raises(ValueError, match="different labels"):
            fn(p, {"probs": [0.0, 1.0], "labels": [2, 1]})
        # the same labels, or one side unlabelled, still pair by position
        assert fn(p, {"probs": [0.5, 0.5], "labels": [1, 2]}) == fn([1.0, 0.0], [0.5, 0.5])
        assert fn(p, [0.5, 0.5]) == fn([1.0, 0.0], [0.5, 0.5])

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            as_distribution({"probs": [0.5, 0.5], "labels": ["a"]})

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_check_alpha_rejects(self, alpha):
        with pytest.raises(ValueError):
            check_alpha(alpha)


def test_random_distribution_needs_a_letter():
    with pytest.raises(ValueError, match="need n >= 1"):
        random_distribution(0, np.random.default_rng(0))


class TestShannonEntropy:
    def test_degenerate(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_two_point(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)

    def test_quarter_oracle(self):
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            h = shannon_entropy(random_distribution(n, rng))
            assert -1e-12 <= h <= math.log(max(n, 2)) + 1e-12

    @given(positive_vectors)
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, values):
        p = normalized(values)
        q = np.roll(p, 1)
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(q), abs=1e-12)


class TestAlphaEntropy:
    def test_uniform_alpha2(self):
        assert alpha_entropy([0.5, 0.5], 2.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7, 3.5])
    def test_degenerate(self, alpha):
        assert alpha_entropy([1.0, 0.0], alpha) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-4, 1e-6])
    def test_continuity_at_one(self, delta):
        p = [0.25, 0.75]
        h = shannon_entropy(p)
        assert abs(alpha_entropy(p, 1.0 + delta) - h) <= 10 * delta
        assert abs(alpha_entropy(p, 1.0 - delta) - h) <= 10 * delta

    @pytest.mark.parametrize("delta", [1e-10, 1e-12, 1e-14])
    def test_stable_across_order_one(self, delta):
        # |dH_a/da| < 1 here, so the true gap to Shannon is below delta
        p = [0.25, 0.75]
        for a in (1.0 - delta, 1.0 + delta):
            assert alpha_entropy(p, a) == pytest.approx(H_QUARTER, rel=2 * delta + 1e-14)

    @pytest.mark.parametrize("alpha", [1e300, 1e306, 1e308, 1.7976931348623157e308])
    def test_huge_orders(self, alpha):
        # sum p^a underflows to 0, so the entropy is 1 / (a - 1), without an overflow warning
        assert alpha_entropy([0.25, 0.75], alpha) == 1.0 / alpha
        assert alpha_entropy([1.0, 0.0], alpha) == 0.0

    def test_spec_window(self):
        p = [0.25, 0.75]
        assert abs(alpha_entropy(p, 1.000001) - alpha_entropy(p, 1.0)) <= 1e-5

    @given(positive_vectors, st.floats(min_value=0.1, max_value=4.0))
    @example(values=[1.0, 1.0, 0.75], alpha=0.99999)  # cancellation near order 1
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, values, alpha):
        p = normalized(values)
        assert alpha_entropy(p, alpha) == pytest.approx(
            alpha_entropy(np.roll(p, 1), alpha), abs=1e-12
        )

    def test_binary_matches_two_point(self):
        for p in [0.0, 0.1, 0.5, 0.9, 1.0]:
            for a in [0.5, 1.0, 2.5]:
                assert binary_alpha_entropy(p, a) == alpha_entropy([p, 1 - p], a)

    def test_binary_domain(self):
        with pytest.raises(ValueError):
            binary_alpha_entropy(1.2, 1.0)


class TestKLDivergence:
    def test_identity(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_single_surviving_term(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)

    def test_disjoint_support_infinite(self):
        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            p = random_distribution(n, rng)
            q = random_distribution(n, rng)
            d = kl_divergence(p, q)
            assert d >= -1e-12
            if np.max(np.abs(p.probs - q.probs)) > 1e-12:
                assert d > 0.0
            assert kl_divergence(p, p) <= 1e-12


class TestTotalVariation:
    def test_identity(self):
        assert total_variation([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_disjoint(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_epsilon_shift(self):
        eps = 0.1
        assert total_variation([0.5 + eps, 0.5 - eps], [0.5 - eps, 0.5 + eps]) == pytest.approx(
            4 * eps, abs=1e-15
        )

    def test_metric_axioms(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            p, q, r = (random_distribution(n, rng) for _ in range(3))
            assert total_variation(p, q) == total_variation(q, p)
            assert total_variation(p, p) == 0.0
            assert total_variation(p, r) <= total_variation(p, q) + total_variation(q, r) + 1e-12


class TestAlphaNormPower:
    def test_identity(self):
        assert alpha_norm_power([0.5, 0.5], [0.5, 0.5], 1.5) == 0.0

    def test_disjoint_alpha2(self):
        assert alpha_norm_power([1.0, 0.0], [0.0, 1.0], 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_oracle_value(self):
        # 2 * 0.3^1.5, high-precision evaluation
        assert alpha_norm_power([0.2, 0.8], [0.5, 0.5], 1.5) == pytest.approx(
            0.32863353450309966, abs=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            alpha_norm_power([1.0], [0.5, 0.5], 1.0)
