"""Closed-form quantities against independent oracles.

Binomial-based quantities are checked against hand-expanded sums and full
enumeration of the outcome space; bound formulas against pinned values
computed once by direct evaluation; optimizers against grid search.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from sparsevote import theory
from sparsevote.theory import (
    BoundInputs,
    alpha,
    beta,
    convergence_bound_randk,
    convergence_bound_topk,
    empty_coordinate_prob,
    gamma_star,
    m_participation_pmf,
    rho_lower_bound,
    sign_flip_bound,
    sparsity_surrogate,
    vote_error_bound,
    vote_error_exact,
)


BETA_GAMMAS = [1e-4, 0.01, 0.1, 0.5, 0.9, 0.999, 1.0]


def enumerate_vote_error(p, u):
    """Exact vote error by enumerating all 2^u flip patterns."""
    total = 0.0
    for pattern in itertools.product([0, 1], repeat=u):
        flips = sum(pattern)
        if flips >= u / 2:
            total += p ** flips * (1 - p) ** (u - flips)
    return total


class TestParticipationStatistics:
    def test_alpha_examples(self):
        assert alpha(3, 0.5) == 0.875
        assert alpha(1, 1.0) == 1.0
        assert alpha(5, 0.0) == 0.0

    def test_alpha_monotone_in_m(self):
        vals = [alpha(m, 0.2) for m in range(1, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_beta_hand_sums(self):
        # beta(2, 0.5) = C(2,1) 0.25 / 1 + C(2,2) 0.25 / sqrt(2)
        assert beta(2, 0.5) == pytest.approx(0.5 + 0.25 / math.sqrt(2), abs=1e-15)
        assert beta(4, 1.0) == pytest.approx(0.5, abs=0)

    def test_beta_full_participation_exact(self):
        for m in (1, 4, 9, 16, 100):
            assert beta(m, 1.0) == 1.0 / math.sqrt(m)

    def test_beta_in_unit_interval(self):
        for m in (1, 3, 10, 100, 10_000):
            for gamma in (0.01, 0.1, 0.5, 0.9, 1.0):
                b = beta(m, gamma)
                assert 0.0 <= b <= 1.0

    def test_beta_stable_at_large_m(self):
        # log-space binomials keep the sum finite and normalized-ish
        b = beta(10_000, 0.001)
        assert 0.0 < b < 1.0 and math.isfinite(b)

    @pytest.mark.parametrize("gamma", BETA_GAMMAS)
    def test_beta_window_leaves_out_at_most_1e_17_of_the_mass(self, gamma):
        # For every m <= 1e4 the window's gap to the full sum is at most the
        # binomial mass outside it (each term is at most its mass).
        binom = stats.binom
        m = np.arange(1, 10_001)
        lo, hi = np.array([theory._beta_terms(int(w), gamma)[[0, -1]] for w in m]).T
        outside = np.where(lo > 1, binom.cdf(lo - 1, m, gamma), 0.0) + binom.sf(hi, m, gamma)
        assert outside.max() <= 1e-17

    @pytest.mark.parametrize("gamma", BETA_GAMMAS)
    def test_beta_equals_the_full_sum_within_rounding(self, gamma):
        binom = stats.binom
        for m in [*range(1, 401), *range(401, 10_001, 97), 10_000]:
            u = np.arange(1, m + 1)
            full = float(np.sum(binom.pmf(u, m, gamma) / np.sqrt(u)))
            # The left-out mass, then the rounding of two sums taken in a different order.
            assert abs(beta(m, gamma) - full) <= 1e-17 + 1e-15 * full, m

    def test_beta_at_a_billion_workers_in_bounded_memory(self):
        tracemalloc.start()
        try:
            b = beta(10**9, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The full sum held three 1e9-long arrays, 24 GB.
        assert peak < 64 * 2**20
        # E[1/sqrt(U)] = (1 + 3 var / (8 mean^2) + ...) / sqrt(mean).
        assert b == pytest.approx((1 + 3 / (8 * 10**9)) / math.sqrt(5e8), rel=1e-12)

    def test_beta_refuses_a_window_past_its_term_cap(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^the terms beta sums at worker count 1000000000000000 "
                                                 "must be at most 1048576, got 282266193$"):
                beta(10**15, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_pmf_example_and_normalization(self):
        assert m_participation_pmf(3, 0.5, 2) == pytest.approx(0.375, abs=1e-15)
        for m in (1, 7, 100, 1000):
            total = sum(m_participation_pmf(m, 0.3, u) for u in range(m + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_matches_hand_expansion(self):
        # brute-force recount over all 2^(m) participation patterns, m small
        m, gamma = 4, 0.3
        for u in range(m + 1):
            oracle = sum(
                gamma ** sum(bits) * (1 - gamma) ** (m - sum(bits))
                for bits in itertools.product([0, 1], repeat=m)
                if sum(bits) == u
            )
            assert m_participation_pmf(m, gamma, u) == pytest.approx(oracle, abs=1e-14)

    def test_empty_coordinate_prob(self):
        exact, approx = empty_coordinate_prob(100, 0.05)
        assert exact == pytest.approx(0.95 ** 100, abs=1e-18)
        assert approx == pytest.approx(math.exp(-5.0), abs=1e-18)
        assert abs(approx - exact) / exact < 0.15
        assert empty_coordinate_prob(0, 0.3) == (1.0, 1.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            alpha(0, 0.5)
        with pytest.raises(ValueError):
            beta(3, 1.5)
        with pytest.raises(ValueError):
            m_participation_pmf(3, 0.5, 4)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: alpha(True, 0.5),
            lambda: alpha(3.0, 0.5),
            lambda: beta(3.5, 0.5),
            lambda: m_participation_pmf(3, 0.5, 1.5),
            lambda: m_participation_pmf(3.5, 0.5, 1),
            lambda: empty_coordinate_prob(2.5, 0.5),
            lambda: vote_error_exact(0.1, 2.5),
            lambda: vote_error_bound(0.1, True),
            lambda: gamma_star(8.5, 1.0, 1.0, 16.0, 1.0),
            lambda: sparsity_surrogate(0.1, "8", 1.0, 1.0, 16.0, 1.0),
            lambda: BoundInputs(m=8, gamma=0.1, epsilon=1.0, l1_smoothness=16.0,
                                sigma_l1=1.0, f0_minus_fstar=1.0, t=100.5),
        ],
    )
    def test_counts_must_be_integers(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_numpy_integer_counts_pass(self):
        assert alpha(np.int64(3), 0.5) == alpha(3, 0.5)
        assert m_participation_pmf(np.int32(3), 0.5, np.int64(1)) == m_participation_pmf(3, 0.5, 1)
        assert vote_error_exact(0.1, np.int16(3)) == vote_error_exact(0.1, 3)
        assert BoundInputs(m=np.int64(8), gamma=0.1, epsilon=1.0, l1_smoothness=16.0,
                           sigma_l1=1.0, f0_minus_fstar=1.0, t=np.int64(100)) == _FIXTURE


class TestThresholdAndFlip:
    def test_rho_example(self):
        assert rho_lower_bound(1.0, 1.0, 2.0) == 2.0
        assert rho_lower_bound(0.25, 0.5, 2.0) == 2.0

    def test_flip_bound_example(self):
        # sigma=1, |g|=1, B=4, eps=1, gamma=0.25 -> 1 / (2 * 3)
        assert sign_flip_bound(1.0, 1.0, 4, 0.25, 1.0) == pytest.approx(1 / 6, abs=1e-15)

    def test_flip_bound_clamped(self):
        assert sign_flip_bound(10.0, 0.1, 1, 1.0, 0.0) == 1.0
        assert sign_flip_bound(10.0, 0.1, 1, 1.0, 0.0, clamp=False) == pytest.approx(100.0)

    def test_flip_bound_monotone(self):
        # decreasing in batch, increasing in gamma (raw values, no clamp)
        batches = [1, 2, 4, 16, 64, 256]
        vals = [sign_flip_bound(1.0, 1.0, b, 0.25, 1.0, clamp=False) for b in batches]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        gammas = [0.05, 0.1, 0.2, 0.5, 1.0]
        vals = [sign_flip_bound(1.0, 1.0, 4, g, 1.0, clamp=False) for g in gammas]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "name, call",
    [
        # An int past the float range is not a finite real.
        ("epsilon", lambda: rho_lower_bound(0.5, 10 ** 400, 1.0)),
        ("f0_minus_fstar", lambda: sparsity_surrogate(0.1, 8, 1.0, 10 ** 400, 16.0, 1.0)),
        ("sigma_n", lambda: sign_flip_bound(math.inf, 1.0, 4, 0.25, 1.0)),
        ("l1_smoothness", lambda: gamma_star(8, 1.0, 1.0, "16", 1.0)),
    ],
)
def test_real_arguments_must_be_finite_numbers(name, call):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        call()


class TestVoteError:
    def test_bound_example(self):
        assert vote_error_bound(0.1, 3) == pytest.approx(0.36 ** 1.5, abs=1e-15)

    def test_exact_examples(self):
        assert vote_error_exact(0.1, 3) == pytest.approx(0.028, abs=1e-12)
        assert vote_error_exact(0.3, 4) == pytest.approx(0.3483, abs=1e-12)

    def test_exact_matches_enumeration(self):
        for u in range(1, 11):
            for p in (0.05, 0.2, 0.45):
                assert vote_error_exact(p, u) == pytest.approx(
                    enumerate_vote_error(p, u), abs=1e-12
                )

    def test_ties_count_as_errors(self):
        # u=2, p=0.5: error iff >= 1 flip -> 0.75, not the strict-tail 0.25
        assert vote_error_exact(0.5, 2) == pytest.approx(0.75, abs=1e-12)

    def test_bound_dominates_exact(self):
        for u in range(1, 13):
            for p in np.arange(0.01, 0.50, 0.04):
                assert vote_error_exact(p, u) <= vote_error_bound(p, u) + 1e-12

    def test_shrinks_with_participation_below_half(self):
        vals = [vote_error_bound(0.2, u) for u in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# Pinned by direct evaluation of the formulas at these inputs.
_FIXTURE = BoundInputs(
    m=8, gamma=0.1, epsilon=1.0, l1_smoothness=16.0, sigma_l1=1.0, f0_minus_fstar=1.0, t=100
)
_TOPK_FIXTURE_VALUE = 0.9453105223058732
_RANDK_FIXTURE_VALUE = 1.0812266701543132


class TestConvergenceBounds:
    def test_topk_regression_fixture(self):
        assert convergence_bound_topk(_FIXTURE) == pytest.approx(_TOPK_FIXTURE_VALUE, rel=1e-12)

    def test_randk_regression_fixture(self):
        assert convergence_bound_randk(_FIXTURE) == pytest.approx(_RANDK_FIXTURE_VALUE, rel=1e-12)

    def test_full_participation_reduction(self):
        # gamma=1, eps=0: (1/sqrt(T)) [ sqrt(L1)(f0 + 1/2) + (2/sqrt(M)) sigma1 ]
        inp = BoundInputs(m=16, gamma=1.0, epsilon=0.0, l1_smoothness=4.0,
                          sigma_l1=3.0, f0_minus_fstar=2.0, t=400)
        expected = (math.sqrt(4.0) * 2.5 + 2.0 / math.sqrt(16) * 3.0) / math.sqrt(400)
        assert convergence_bound_topk(inp) == pytest.approx(expected, rel=1e-14)

    def test_randk_never_below_topk(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            inp = BoundInputs(
                m=int(rng.integers(1, 50)),
                gamma=float(rng.uniform(0.05, 1.0)),
                epsilon=float(rng.uniform(0.0, 1.0)),
                l1_smoothness=float(rng.uniform(0.5, 50.0)),
                sigma_l1=float(rng.uniform(0.0, 10.0)),
                f0_minus_fstar=float(rng.uniform(0.0, 5.0)),
                t=int(rng.integers(1, 10_000)),
            )
            assert convergence_bound_randk(inp) >= convergence_bound_topk(inp) - 1e-15

    def test_equal_at_epsilon_zero(self):
        inp = BoundInputs(m=5, gamma=0.3, epsilon=0.0, l1_smoothness=2.0,
                          sigma_l1=1.0, f0_minus_fstar=1.0, t=10)
        assert convergence_bound_randk(inp) == convergence_bound_topk(inp)

    def test_decreasing_in_epsilon(self):
        vals = []
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            inp = BoundInputs(m=8, gamma=0.1, epsilon=eps, l1_smoothness=16.0,
                              sigma_l1=4.0, f0_minus_fstar=1.0, t=100)
            vals.append(convergence_bound_topk(inp))
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_t(self):
        for t_small, t_big in ((10, 100), (100, 10_000)):
            small = convergence_bound_topk(
                BoundInputs(m=4, gamma=0.5, epsilon=0.5, l1_smoothness=4.0,
                            sigma_l1=1.0, f0_minus_fstar=1.0, t=t_small)
            )
            big = convergence_bound_topk(
                BoundInputs(m=4, gamma=0.5, epsilon=0.5, l1_smoothness=4.0,
                            sigma_l1=1.0, f0_minus_fstar=1.0, t=t_big)
            )
            assert big < small

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(m=0, gamma=0.5, epsilon=0.5, l1_smoothness=1.0,
                        sigma_l1=1.0, f0_minus_fstar=1.0, t=10)
        with pytest.raises(ValueError):
            BoundInputs(m=2, gamma=0.0, epsilon=0.5, l1_smoothness=1.0,
                        sigma_l1=1.0, f0_minus_fstar=1.0, t=10)
        with pytest.raises(ValueError):
            BoundInputs(m=2, gamma=0.5, epsilon=1.5, l1_smoothness=1.0,
                        sigma_l1=1.0, f0_minus_fstar=1.0, t=10)


class TestGammaStar:
    def test_example(self):
        # eps=1, f0=1, M=8, L1=16, sigma1=1 -> (1/2)^(2/3)
        assert gamma_star(8, 1.0, 1.0, 16.0, 1.0) == pytest.approx(0.5 ** (2 / 3), rel=1e-14)

    def test_scales_like_m_to_minus_two_thirds(self):
        base = gamma_star(10, 0.5, 1.0, 9.0, 2.0)
        assert gamma_star(80, 0.5, 1.0, 9.0, 2.0) == pytest.approx(base / 4.0, rel=1e-12)

    def test_minimizes_surrogate_on_grid(self):
        # closed form lands in the same cell as a fine grid-search argmin
        rng = np.random.default_rng(21)
        grid = np.logspace(-3, 0, 600)
        for _ in range(8):
            m = int(rng.integers(20, 200))
            eps = float(rng.uniform(0.2, 1.0))
            f0 = float(rng.uniform(0.2, 2.0))
            l1 = float(rng.uniform(4.0, 64.0))
            s1 = float(rng.uniform(1.0, 8.0))
            star = gamma_star(m, eps, f0, l1, s1)
            if not star < 1.0:
                continue
            vals = [sparsity_surrogate(g, m, eps, f0, l1, s1) for g in grid]
            best = grid[int(np.argmin(vals))]
            # within one grid cell of the argmin (log-spaced, ratio ~1.0116)
            assert abs(math.log(star) - math.log(best)) <= math.log(grid[1] / grid[0]) * 1.5
            # and no grid point beats the closed form
            assert sparsity_surrogate(star, m, eps, f0, l1, s1) <= min(vals) + 1e-12

    def test_surrogate_unimodal_around_star(self):
        m, eps, f0, l1, s1 = 50, 0.5, 1.0, 16.0, 2.0
        star = gamma_star(m, eps, f0, l1, s1)
        assert 0.0 < star < 1.0
        h = lambda g: sparsity_surrogate(g, m, eps, f0, l1, s1)
        assert h(star * 0.5) > h(star)
        assert h(min(1.0, star * 2.0)) > h(star)

    def test_surrogate_scales_with_horizon(self):
        val_t1 = sparsity_surrogate(0.3, 10, 0.5, 1.0, 4.0, 1.0, t=1.0)
        val_t100 = sparsity_surrogate(0.3, 10, 0.5, 1.0, 4.0, 1.0, t=100.0)
        assert val_t100 == pytest.approx(val_t1 / 10.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_star(0, 0.5, 1.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            gamma_star(4, 0.5, 1.0, 4.0, 0.0)
        with pytest.raises(ValueError):
            sparsity_surrogate(0.0, 4, 0.5, 1.0, 4.0, 1.0)
