"""Closed-form quantities behind the convergence analysis.

Participation statistics of the vote (how many workers touch a coordinate
when each sends a K-sparse message), sign-flip and vote-error probabilities,
the resulting convergence-rate bounds for the top-K and random-K variants,
and the sparsity level that optimizes the small-gamma surrogate of the rate.

Throughout, gamma = K/N is the sparsity ratio, M the worker count, and
epsilon in [0, 1] the constant relating the selection threshold to the mean
gradient magnitude.  Binomial terms are evaluated in log space (scipy), so
everything stays finite for M up to at least 1e4.

Importing this module loads numpy only.  scipy is loaded by the binomial
bounds alone (beta, m_participation_pmf, vote_error_exact, and the two
convergence bounds through beta), on the first call of one of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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


# Counts reach numpy and scipy as int64.
_COUNT_MAX = 2**63 - 1


def _binom():
    """scipy.stats.binom, imported on the first call of a binomial bound.

    Importing scipy.stats costs ~0.6 s and ~60 MiB, and no run uses it, so
    `import sparsevote`, `run` and `sweep` leave it unloaded.
    """
    from scipy import stats

    return stats.binom


def _check_real(value, name: str) -> None:
    """A real argument is a finite non-bool int or float (numpy scalars too)."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not isinstance(value, numbers.Integral) and not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_gamma(gamma: float, positive: bool = False) -> None:
    _check_real(gamma, "gamma")
    lo_ok = gamma > 0 if positive else gamma >= 0
    if not (lo_ok and gamma <= 1):
        lo = "(0" if positive else "[0"
        raise ValueError(f"gamma must be in {lo}, 1], got {gamma}")


def _check_count(value, name: str, low: int = 1) -> None:
    """A count is a non-bool integer (numpy integers too) in [low, 2**63 - 1], low 0 or 1."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be {'positive' if low else 'non-negative'}, got {value}")
    if value > _COUNT_MAX:
        raise ValueError(f"{name} must be at most 2**63 - 1, got {value}")


def _check_batch(batch) -> None:
    """A batch size is a positive integer; an integral float such as 4.0 passes too."""
    if (not isinstance(batch, numbers.Real) or isinstance(batch, bool)
            or not isinstance(batch, numbers.Integral) and not float(batch).is_integer()):
        raise ValueError(f"batch must be an integer, got {batch!r}")
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")


def alpha(m: int, gamma: float) -> float:
    """Probability that at least one of m workers votes on a coordinate.

    Each worker includes a given coordinate independently with probability
    gamma, so alpha = 1 - (1 - gamma)^m.
    """
    _check_count(m, "worker count")
    _check_gamma(gamma)
    return 1.0 - (1.0 - gamma) ** m


def beta(m: int, gamma: float) -> float:
    """Expected 1/sqrt(participation), counting only voted coordinates.

    beta = sum_{u=1..m} (1/sqrt(u)) C(m,u) gamma^u (1-gamma)^(m-u).
    """
    _check_count(m, "worker count")
    _check_gamma(gamma)
    u = np.arange(1, m + 1)
    pmf = _binom().pmf(u, m, gamma)
    return float(np.sum(pmf / np.sqrt(u)))


def m_participation_pmf(m: int, gamma: float, u: int) -> float:
    """P[exactly u of m workers vote on a coordinate]: Binomial(m, gamma)."""
    _check_count(m, "worker count")
    _check_gamma(gamma)
    _check_count(u, "u", low=0)
    if u > m:
        raise ValueError(f"u must be in [0, {m}], got {u}")
    return float(_binom().pmf(u, m, gamma))


def empty_coordinate_prob(m: int, gamma: float) -> tuple[float, float]:
    """(exact, Poisson-style approximation) of P[no worker votes].

    exact = (1 - gamma)^m, approx = exp(-gamma * m).
    """
    _check_count(m, "worker count", low=0)
    _check_gamma(gamma)
    return (1.0 - gamma) ** m, math.exp(-gamma * m)


def rho_lower_bound(gamma: float, epsilon: float, g_bar_abs: float) -> float:
    """Lower bound on the top-K selection threshold: (epsilon/sqrt(gamma))*|g|."""
    _check_gamma(gamma, positive=True)
    _check_real(epsilon, "epsilon")
    _check_real(g_bar_abs, "g_bar_abs")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if g_bar_abs < 0:
        raise ValueError(f"g_bar_abs must be non-negative, got {g_bar_abs}")
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
    _check_gamma(gamma, positive=True)
    for name, value in (("sigma_n", sigma_n), ("g_bar_abs", g_bar_abs), ("epsilon", epsilon)):
        _check_real(value, name)
    _check_batch(batch)
    if not isinstance(clamp, bool):
        raise ValueError(f"clamp must be true or false, got {clamp!r}")
    if sigma_n < 0:
        raise ValueError(f"sigma_n must be non-negative, got {sigma_n}")
    if g_bar_abs <= 0:
        raise ValueError(f"g_bar_abs must be positive, got {g_bar_abs}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    raw = sigma_n / (math.sqrt(batch) * (1.0 + epsilon / math.sqrt(gamma)) * g_bar_abs)
    return min(raw, 1.0) if clamp else raw


def vote_error_bound(p: float, u: int) -> float:
    """Chernoff bound on a vote over u participants erring: [4p(1-p)]^(u/2)."""
    _check_real(p, "p")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    _check_count(u, "u")
    return (4.0 * p * (1.0 - p)) ** (u / 2.0)


def vote_error_exact(p: float, u: int) -> float:
    """Exact vote error over u participants with per-vote flip probability p.

    The vote errs when at least half the participants flip; ties count as
    errors, so this is the Binomial(u, p) tail from ceil(u/2) up.
    """
    _check_real(p, "p")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    _check_count(u, "u")
    lo = math.ceil(u / 2)
    return float(_binom().sf(lo - 1, u, p))


@dataclass(frozen=True)
class BoundInputs:
    """Problem constants feeding the convergence-rate bounds.

    l1_smoothness is the l1 norm of the coordinate-wise smoothness vector,
    sigma_l1 the l1 norm of the per-coordinate gradient-noise scales, and
    f0_minus_fstar the initial optimality gap.  The stated rates assume the
    horizon-matched batch size B = T; batch is retained for reporting when a
    run deviates from that.
    """

    m: int
    gamma: float
    epsilon: float
    l1_smoothness: float
    sigma_l1: float
    f0_minus_fstar: float
    t: int
    batch: int | None = None

    def __post_init__(self):
        _check_count(self.m, "worker count")
        _check_gamma(self.gamma, positive=True)
        for name in ("epsilon", "l1_smoothness", "sigma_l1", "f0_minus_fstar"):
            _check_real(getattr(self, name), name)
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        for name in ("l1_smoothness", "sigma_l1", "f0_minus_fstar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.l1_smoothness == 0:
            raise ValueError("l1_smoothness must be positive")
        _check_count(self.t, "t")
        if self.batch is not None:
            _check_batch(self.batch)


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
    _check_count(m, "worker count")
    for name, value in (("epsilon", epsilon), ("f0_minus_fstar", f0_minus_fstar),
                        ("l1_smoothness", l1_smoothness), ("sigma_l1", sigma_l1)):
        _check_real(value, name)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if f0_minus_fstar <= 0:
        raise ValueError(f"f0_minus_fstar must be positive, got {f0_minus_fstar}")
    if l1_smoothness <= 0:
        raise ValueError(f"l1_smoothness must be positive, got {l1_smoothness}")
    if sigma_l1 <= 0:
        raise ValueError(f"sigma_l1 must be positive, got {sigma_l1}")
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
    _check_gamma(gamma, positive=True)
    _check_count(m, "worker count")
    for name, value in (("epsilon", epsilon), ("f0_minus_fstar", f0_minus_fstar),
                        ("l1_smoothness", l1_smoothness), ("sigma_l1", sigma_l1), ("t", t)):
        _check_real(value, name)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    descent = f0_minus_fstar * math.sqrt(l1_smoothness) / (m * gamma)
    noise = 2.0 * math.sqrt(gamma) / epsilon * sigma_l1
    return (descent + noise) / math.sqrt(t)
