"""Tests for the simplex-constrained sample weight solver.

The solver minimizes sum_i f_i/(1-w_i) over the probability simplex; its
closed form is checked against an independent projected-gradient oracle and
against hand-derived small instances.
"""

import numpy as np
import pytest

from epca import (
    DimensionError,
    InvariantError,
    ValidationError,
    WeightVector,
    objective_value,
    solve_weights,
)

from oracles import simplex_weight_oracle


class TestSolveWeightsKnownInstances:
    def test_equal_losses_give_uniform_weights(self):
        wv = solve_weights([1.0, 1.0, 1.0])
        np.testing.assert_allclose(wv.weights, [1 / 3, 1 / 3, 1 / 3], rtol=1e-14)
        assert wv.active_count == 3

    def test_one_four_nine(self):
        """f = (1, 4, 9) activates two samples with multiplier sqrt(lam) = 3."""
        wv = solve_weights([1.0, 4.0, 9.0])
        np.testing.assert_allclose(wv.weights, [2 / 3, 1 / 3, 0.0], rtol=1e-14, atol=0)
        assert wv.active_count == 2
        assert np.sqrt(wv.lam) == pytest.approx(3.0, rel=1e-14)

    def test_dominant_loss_is_dropped(self):
        wv = solve_weights([1.0, 1.0, 100.0])
        np.testing.assert_allclose(wv.weights, [0.5, 0.5, 0.0], rtol=1e-14, atol=0)
        assert wv.active_count == 2

    def test_two_zero_losses_split_mass_uniformly(self):
        wv = solve_weights([0.0, 0.0, 5.0])
        np.testing.assert_allclose(wv.weights, [0.5, 0.5, 0.0], atol=0)
        assert wv.active_count == 2
        assert wv.lam == 0.0

    def test_result_is_unpermuted_to_input_order(self):
        wv = solve_weights([9.0, 1.0, 4.0])
        np.testing.assert_allclose(wv.weights, [0.0, 2 / 3, 1 / 3], rtol=1e-14, atol=0)


class TestSolveWeightsProperties:
    def test_objective_not_worse_than_projected_gradient_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            n = int(rng.integers(3, 21))
            f = rng.uniform(0.05, 10.0, n)
            wv = solve_weights(f)
            mine = objective_value(f, wv)
            _, oracle = simplex_weight_oracle(f)
            assert mine <= oracle + 1e-6

    def test_monotonicity_smaller_loss_larger_weight(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            f = rng.uniform(0.01, 5.0, int(rng.integers(3, 15)))
            w = solve_weights(f).weights
            order = np.argsort(f)
            assert np.all(np.diff(w[order]) <= 1e-15)

    def test_at_least_two_active_for_positive_losses(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            f = rng.uniform(0.01, 10.0, int(rng.integers(2, 30)))
            assert solve_weights(f).active_count >= 2

    def test_scaling_losses_leaves_weights_unchanged(self):
        rng = np.random.default_rng(55)
        f = rng.uniform(0.1, 5.0, 12)
        base = solve_weights(f)
        for t in (1e-6, 0.5, 3.0, 1e7):
            scaled = solve_weights(t * f)
            np.testing.assert_allclose(scaled.weights, base.weights, rtol=1e-12, atol=1e-15)
            assert scaled.active_count == base.active_count
            assert scaled.lam == pytest.approx(t * base.lam, rel=1e-12)

    def test_simplex_invariants_hold(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = rng.uniform(0.0, 1.0, int(rng.integers(2, 40))) ** 4
            wv = solve_weights(f)
            assert abs(wv.weights.sum() - 1.0) <= 1e-12 * wv.weights.size
            assert np.all(wv.weights >= 0) and np.all(wv.weights < 1)
            assert np.count_nonzero(wv.weights) == wv.active_count

    def test_complements_are_exact_ratios(self):
        """Stored complements come from sqrt(f/lam) directly, not 1 - w."""
        wv = solve_weights([1.0, 4.0, 9.0])
        np.testing.assert_allclose(wv.complements, [1 / 3, 2 / 3, 1.0], rtol=1e-14)
        # a loss vector with one extremely small entry drives w -> 1; the
        # complement must stay positive rather than rounding to zero
        wv = solve_weights([1e-30, 1.0])
        assert wv.complements[0] > 0
        assert np.all(wv.weights < 1.0)

    def test_single_zero_loss_uses_floor_and_regular_path(self):
        wv = solve_weights([0.0, 1.0, 4.0])
        # the floored sample dominates the active set; k = 2 here
        assert wv.active_count == 2
        assert wv.weights[0] > wv.weights[1] > wv.weights[2] == 0.0
        assert wv.floor_correction > 0.0

    def test_numerically_vanishing_loss_falls_back_to_zero_clamp(self):
        """A loss below the float resolution of the multiplier's partial sums
        breaks the strict activation scan; it must be treated as exact zero."""
        wv = solve_weights(np.array([1e-33, 4.0, 9.0]))
        assert wv.active_count == 2
        assert abs(wv.weights.sum() - 1.0) <= 1e-12 * 3
        assert np.count_nonzero(wv.weights) == wv.active_count


class TestSolveWeightsValidation:
    def test_rejects_negative_loss(self):
        with pytest.raises(ValidationError):
            solve_weights([1.0, -0.5])

    def test_rejects_non_finite_loss(self):
        with pytest.raises(ValidationError):
            solve_weights([1.0, np.nan])
        with pytest.raises(ValidationError):
            solve_weights([1.0, np.inf])

    def test_rejects_short_input(self):
        with pytest.raises(DimensionError):
            solve_weights([1.0])


class TestWeightVectorInvariants:
    def test_rejects_weights_outside_unit_interval(self):
        with pytest.raises(InvariantError):
            WeightVector(np.array([1.0, 0.0]), 1, 1.0)
        with pytest.raises(InvariantError):
            WeightVector(np.array([-0.1, 1.1]), 2, 1.0)

    def test_rejects_wrong_sum(self):
        with pytest.raises(InvariantError):
            WeightVector(np.array([0.4, 0.4]), 2, 1.0)

    def test_rejects_wrong_active_count(self):
        with pytest.raises(InvariantError):
            WeightVector(np.array([0.5, 0.5, 0.0]), 3, 1.0)

    def test_default_complements_fill_in(self):
        wv = WeightVector(np.array([0.25, 0.75, 0.0]), 2, 1.0)
        np.testing.assert_allclose(wv.complements, [0.75, 0.25, 1.0])


class TestObjectiveValue:
    def test_uniform_weights(self):
        wv = solve_weights([1.0, 1.0, 1.0])
        assert objective_value([1.0, 1.0, 1.0], wv) == pytest.approx(4.5, rel=1e-14)

    def test_hand_computed_instance(self):
        wv = solve_weights([1.0, 4.0, 9.0])
        assert objective_value([1.0, 4.0, 9.0], wv) == pytest.approx(18.0, rel=1e-14)

    def test_inactive_samples_contribute_their_raw_loss(self):
        wv = solve_weights([1.0, 1.0, 100.0])
        # third sample carries weight 0, so it adds exactly f_3
        total = objective_value([1.0, 1.0, 100.0], wv)
        assert total == pytest.approx(2.0 + 2.0 + 100.0, rel=1e-14)

    def test_rejects_length_mismatch(self):
        wv = solve_weights([1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            objective_value([1.0, 2.0], wv)
