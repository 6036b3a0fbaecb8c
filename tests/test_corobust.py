"""Tests for the simplex-constrained sample weight solver.

The solver minimizes sum_i f_i/(1-w_i) over the probability simplex; its
closed form is checked against an independent projected-gradient oracle and
against hand-derived small instances.  The objective is evaluated as the fit
evaluates it, ``sum(f / wv.complements)``.
"""

import numpy as np
import pytest

from epca import (
    DimensionError,
    InvariantError,
    ValidationError,
    WeightVector,
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
        by_length = {}
        for _ in range(30):
            n = int(rng.integers(3, 21))
            f = rng.uniform(0.05, 10.0, n)
            wv = solve_weights(f)
            by_length.setdefault(n, []).append((f, np.sum(f / wv.complements)))
        for cases in by_length.values():
            losses, mine = zip(*cases)
            _, oracle = simplex_weight_oracle(np.array(losses))
            assert np.all(np.array(mine) <= oracle + 1e-6)

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

    def test_single_zero_loss_takes_all_the_weight(self):
        """With one zero loss the infimum, the sum of the other losses, is
        approached as that sample's weight tends to 1."""
        f = [0.0, 1.0, 4.0]
        wv = solve_weights(f)
        assert wv.active_count == 1
        assert wv.weights[0] > wv.weights[1] == wv.weights[2] == 0.0
        assert wv.lam == 0.0
        assert np.sum(f / wv.complements) == 5.0

    def test_numerically_vanishing_loss_counts_as_zero(self):
        """A loss below (eps * sqrt(max f))**2 vanishes next to the others'
        square roots; it is treated as an exact zero."""
        f = np.array([1e-33, 4.0, 9.0])
        wv = solve_weights(f)
        assert wv.active_count == 1
        assert abs(wv.weights.sum() - 1.0) <= 1e-12 * 3
        assert np.count_nonzero(wv.weights) == wv.active_count
        assert np.sum(f / wv.complements) == 13.0

    def test_rounded_partial_sum_still_ends_the_activation_scan(self):
        """The partial sums of sqrt(f) round 1 + 2.5e-16 + 1 to 2, so no k
        satisfies both sides of the optimality condition in floats; the
        leading run of the lower side still ends at one."""
        f = [1.0, 6.46582551e-32, 1.0]
        wv = solve_weights(f)
        assert wv.active_count == 2
        assert wv.weights[1] > wv.weights[0] > wv.weights[2] == 0.0
        assert np.sum(f / wv.complements) == pytest.approx(2.0, rel=1e-15)

    def test_degenerate_magnitudes_land_on_the_simplex(self):
        """Exact zeros, subnormals and losses from 1e-40 to 1e40, mixed."""
        rng = np.random.default_rng(2718)
        subnormal = np.finfo(float).smallest_subnormal
        for _ in range(300):
            n = int(rng.integers(2, 8))
            kind = rng.integers(3, size=n)
            f = np.where(kind == 0, 0.0,
                         np.where(kind == 1, subnormal * rng.integers(1, 2**40, n),
                                  10.0 ** rng.uniform(-40, 40, n)))
            wv = solve_weights(f)
            w = wv.weights
            assert abs(w.sum() - 1.0) <= 1e-12 * n
            assert np.all(w >= 0) and np.all(w < 1)
            assert np.count_nonzero(w) == wv.active_count
            mine = np.sum(f / wv.complements)
            if np.all(f > 0):
                _, oracle = simplex_weight_oracle(f, iters=400)
                assert mine <= oracle + 1e-6
            else:
                assert mine == np.sum(np.where(w > 0, 0.0, f))


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
    @staticmethod
    def _weights(w, active_count):
        w = np.array(w)
        return WeightVector(w, active_count, 1.0, 1.0 - w)

    def test_rejects_weights_outside_unit_interval(self):
        with pytest.raises(InvariantError):
            self._weights([1.0, 0.0], 1)
        with pytest.raises(InvariantError):
            self._weights([-0.1, 1.1], 2)

    def test_rejects_wrong_sum(self):
        with pytest.raises(InvariantError):
            self._weights([0.4, 0.4], 2)

    def test_rejects_wrong_active_count(self):
        with pytest.raises(InvariantError):
            self._weights([0.5, 0.5, 0.0], 3)

    @pytest.mark.parametrize("count", [2.7, 2.0, "2", 0])
    def test_active_count_must_be_a_count(self, count):
        with pytest.raises(ValidationError, match="active_count"):
            WeightVector(np.array([0.5, 0.5]), count, 0.25, np.array([0.5, 0.5]))

    def test_active_count_is_stored_as_an_int(self):
        weights = WeightVector(np.array([0.5, 0.5]), np.int64(2), 0.25, np.array([0.5, 0.5]))
        assert type(weights.active_count) is int and weights.active_count == 2

    def test_rejects_non_finite_complements(self):
        with pytest.raises(ValidationError, match="complements entries must be finite"):
            WeightVector(np.array([0.5, 0.5, 0.0]), 2, 1.0, np.array([0.5, np.nan, 1.0]))

    def test_rejects_complements_of_another_shape(self):
        with pytest.raises(DimensionError):
            WeightVector(np.array([0.5, 0.5, 0.0]), 2, 1.0, np.ones(2))


class TestObjectiveValue:
    """The objective sum(f / complements) at the solver's weights."""

    def test_uniform_weights(self):
        f = np.array([1.0, 1.0, 1.0])
        wv = solve_weights(f)
        assert np.sum(f / wv.complements) == pytest.approx(4.5, rel=1e-14)

    def test_hand_computed_instance(self):
        f = np.array([1.0, 4.0, 9.0])
        wv = solve_weights(f)
        assert np.sum(f / wv.complements) == pytest.approx(18.0, rel=1e-14)

    def test_inactive_samples_contribute_their_raw_loss(self):
        f = np.array([1.0, 1.0, 100.0])
        wv = solve_weights(f)
        # third sample carries weight 0, so it adds exactly f_3
        assert wv.complements[2] == 1.0
        assert np.sum(f / wv.complements) == pytest.approx(2.0 + 2.0 + 100.0, rel=1e-14)
