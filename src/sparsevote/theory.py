"""Closed-form quantities behind the convergence analysis.

Participation statistics of the vote (how many workers touch a coordinate
when each sends a K-sparse message), sign-flip and vote-error probabilities,
the resulting convergence-rate bounds for the top-K and random-K variants,
and the sparsity level that optimizes the small-gamma surrogate of the rate.

Throughout, gamma = K/N is the sparsity ratio, M the worker count, and
epsilon in [0, 1] the constant relating the selection threshold to the mean
gradient magnitude.  Binomial terms are evaluated in log space (scipy), so
everything stays finite for M up to at least 1e4.

Arguments pass the package's one set of input checks, in _checks.
Importing this module loads numpy only.  scipy is loaded by the binomial
bounds alone (beta, m_participation_pmf, vote_error_exact, and the two
convergence bounds through beta), on the first call of one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks

__all__ = [
    "BoundInputs",
    "alpha",
    "beta",
    "m_participation_pmf",
    "empty_coordinate_prob",
    "rho_lower_bound",
    "sign_flip_bound",
    "vote_error_bound",
    "vote_error_exact",
    "convergence_bound_topk",
    "convergence_bound_randk",
    "gamma_star",
    "sparsity_surrogate",
]


def _binom():
    """scipy.stats.binom, imported on the first call of a binomial bound.

    Importing scipy.stats costs ~0.6 s and ~60 MiB, and no run uses it, so
    `import sparsevote`, `run` and `sweep` leave it unloaded.
    """
    from scipy import stats

    return stats.binom


def alpha(m: int, gamma: float) -> float:
    """Probability that at least one of m workers votes on a coordinate.

    Each worker includes a given coordinate independently with probability
    gamma, so alpha = 1 - (1 - gamma)^m.
    """
    _checks.count(m, "worker count")
    _checks.real(gamma, "gamma", "in [0, 1]")
    return 1.0 - (1.0 - gamma) ** m


def _beta_terms(m: int, gamma: float) -> np.ndarray:
    """The u in 1..m that beta sums, at most 2**20 (8 MiB).  By Bernstein's
    inequality U ~ Binomial(m, gamma) falls t or more from m gamma with chance
    at most 2 exp(-t^2 / (2 m gamma (1 - gamma) + 2t/3)), 1e-17 at this t."""
    mean, log_tail = m * gamma, math.log(2e17)
    t = log_tail / 3 + math.sqrt(log_tail**2 / 9 + 2 * log_tail * mean * (1 - gamma))
    lo, hi = max(1, math.floor(mean - t)), min(m, math.ceil(mean + t))
    _checks.count(hi - lo + 1, f"the terms beta sums at worker count {m}", high=1 << 20)
    return np.arange(lo, hi + 1)


def beta(m: int, gamma: float) -> float:
    """Expected 1/sqrt(participation), counting only voted coordinates.

    beta = sum_{u=1..m} (1/sqrt(u)) C(m,u) gamma^u (1-gamma)^(m-u) over the u
    of _beta_terms, less than 1e-17 short: a term is at most its mass."""
    _checks.count(m, "worker count")
    _checks.real(gamma, "gamma", "in [0, 1]")
    u = _beta_terms(m, gamma)
    pmf = _binom().pmf(u, m, gamma)
    return float(np.sum(pmf / np.sqrt(u)))


def m_participation_pmf(m: int, gamma: float, u: int) -> float:
    """P[exactly u of m workers vote on a coordinate]: Binomial(m, gamma)."""
    _checks.count(m, "worker count")
    _checks.real(gamma, "gamma", "in [0, 1]")
    _checks.count(u, "u", "non-negative", high=m)
    return float(_binom().pmf(u, m, gamma))


def empty_coordinate_prob(m: int, gamma: float) -> tuple[float, float]:
    """(exact, Poisson-style approximation) of P[no worker votes].

    exact = (1 - gamma)^m, approx = exp(-gamma * m).
    """
    _checks.count(m, "worker count", "non-negative")
    _checks.real(gamma, "gamma", "in [0, 1]")
    return (1.0 - gamma) ** m, math.exp(-gamma * m)


def rho_lower_bound(gamma: float, epsilon: float, g_bar_abs: float) -> float:
    """Lower bound on the top-K selection threshold: (epsilon/sqrt(gamma))*|g|."""
    _checks.real(gamma, "gamma", "in (0, 1]")
    _checks.real(epsilon, "epsilon", "non-negative")
    _checks.real(g_bar_abs, "g_bar_abs", "non-negative")
    return (epsilon / math.sqrt(gamma)) * g_bar_abs


def sign_flip_bound(
    sigma_n: float,
    g_bar_abs: float,
    batch: int,
    gamma: float,
    epsilon: float,
    clamp: bool = True,
) -> float:
    """Upper bound on P[coordinate selected with the wrong sign].

        sigma_n / (sqrt(B) * (1 + epsilon/sqrt(gamma)) * |g_bar|)

    A probability, so by default the reported value is clamped to 1; pass
    clamp=False for the raw ratio (strict monotonicity checks need it).
    """
    _checks.real(gamma, "gamma", "in (0, 1]")
    _checks.real(sigma_n, "sigma_n", "non-negative")
    _checks.real(g_bar_abs, "g_bar_abs", "positive")
    _checks.real(epsilon, "epsilon", "non-negative")
    _checks.batch_size(batch, "batch")
    _checks.flag(clamp, "clamp")
    raw = sigma_n / (math.sqrt(batch) * (1.0 + epsilon / math.sqrt(gamma)) * g_bar_abs)
    return min(raw, 1.0) if clamp else raw


def vote_error_bound(p: float, u: int) -> float:
    """Chernoff bound on a vote over u participants erring: [4p(1-p)]^(u/2)."""
    _checks.real(p, "p", "in [0, 1]")
    _checks.count(u, "u")
    return (4.0 * p * (1.0 - p)) ** (u / 2.0)


def vote_error_exact(p: float, u: int) -> float:
    """Exact vote error over u participants with per-vote flip probability p.

    The vote errs when at least half the participants flip; ties count as
    errors, so this is the Binomial(u, p) tail from ceil(u/2) up.
    """
    _checks.real(p, "p", "in [0, 1]")
    _checks.count(u, "u")
    lo = math.ceil(u / 2)
    return float(_binom().sf(lo - 1, u, p))


@dataclass(frozen=True)
class BoundInputs:
    """Problem constants feeding the convergence-rate bounds.

    l1_smoothness is the l1 norm of the coordinate-wise smoothness vector,
    sigma_l1 the l1 norm of the per-coordinate gradient-noise scales, and
    f0_minus_fstar the initial optimality gap.  The stated rates assume the
    horizon-matched batch size B = T.
    """

    m: int
    gamma: float
    epsilon: float
    l1_smoothness: float
    sigma_l1: float
    f0_minus_fstar: float
    t: int

    def __post_init__(self):
        _checks.count(self.m, "worker count")
        _checks.real(self.gamma, "gamma", "in (0, 1]")
        _checks.real(self.epsilon, "epsilon", "in [0, 1]")
        _checks.real(self.l1_smoothness, "l1_smoothness", "positive")
        _checks.real(self.sigma_l1, "sigma_l1", "non-negative")
        _checks.real(self.f0_minus_fstar, "f0_minus_fstar", "non-negative")
        _checks.count(self.t, "t")


def _bound(inp: BoundInputs, noise_factor: float) -> float:
    a = alpha(inp.m, inp.gamma)
    b = beta(inp.m, inp.gamma)
    curvature = math.sqrt(inp.l1_smoothness) * (inp.f0_minus_fstar / a + 0.5)
    return (curvature + (b / a) * noise_factor * inp.sigma_l1) / math.sqrt(inp.t)


def convergence_bound_topk(inp: BoundInputs) -> float:
    """Rate bound for top-K selection with error feedback.

    (1/sqrt(T)) [ sqrt(L1) ((f0 - f*)/alpha + 1/2)
                  + (beta/alpha) (2 / (1 + epsilon/sqrt(gamma))) sigma_l1 ]

    bounding the run average of E||mean gradient||_1 under the theorem's
    step size 1/sqrt(T L1) and batch B = T.
    """
    return _bound(inp, 2.0 / (1.0 + inp.epsilon / math.sqrt(inp.gamma)))


def convergence_bound_randk(inp: BoundInputs) -> float:
    """Rate bound for uniform random-K selection (no error memory).

    Same shape as the top-K bound with noise factor 2; coincides with it at
    epsilon = 0 and is never smaller.
    """
    return _bound(inp, 2.0)


def gamma_star(
    m: int,
    epsilon: float,
    f0_minus_fstar: float,
    l1_smoothness: float,
    sigma_l1: float,
) -> float:
    """Sparsity ratio minimizing the small-gamma surrogate of the rate.

        gamma* = ( (epsilon (f0 - f*) / M) * sqrt(L1) / sigma_l1 )^(2/3)

    Decreases like M^(-2/3) in the worker count.
    """
    _checks.count(m, "worker count")
    for name, value in (("epsilon", epsilon), ("f0_minus_fstar", f0_minus_fstar),
                        ("l1_smoothness", l1_smoothness), ("sigma_l1", sigma_l1)):
        _checks.real(value, name, "positive")
    return (epsilon * f0_minus_fstar / m * math.sqrt(l1_smoothness) / sigma_l1) ** (2.0 / 3.0)


def sparsity_surrogate(
    gamma: float,
    m: int,
    epsilon: float,
    f0_minus_fstar: float,
    l1_smoothness: float,
    sigma_l1: float,
    t: float = 1.0,
) -> float:
    """Small-gamma surrogate h(gamma) of the rate bound.

        h = (1/sqrt(T)) [ (f0 - f*) sqrt(L1) / (M gamma)
                          + (2 sqrt(gamma) / epsilon) sigma_l1 ]

    Unimodal in gamma with its minimum at gamma_star.
    """
    _checks.real(gamma, "gamma", "in (0, 1]")
    _checks.count(m, "worker count")
    for name, value in (("f0_minus_fstar", f0_minus_fstar), ("l1_smoothness", l1_smoothness),
                        ("sigma_l1", sigma_l1)):
        _checks.real(value, name)
    _checks.real(epsilon, "epsilon", "positive")
    _checks.real(t, "t", "positive")
    descent = f0_minus_fstar * math.sqrt(l1_smoothness) / (m * gamma)
    noise = 2.0 * math.sqrt(gamma) / epsilon * sigma_l1
    return (descent + noise) / math.sqrt(t)
