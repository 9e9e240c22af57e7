"""Batch interval engine: batch/scalar agreement and container semantics.

The contract of :mod:`repro.intervals.batch` is that ``compute_batch``
matches a per-element ``compute`` loop to 1e-8 for every interval
method, including the edge outcomes (``tau = 0``, ``tau = n``, the flat
posterior) and the bathtub error case.  These tests sweep outcome
grids, fractional effective counts, and all three alphas used by the
paper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators.base import Evidence
from repro.exceptions import IntervalError, ValidationError
from repro.intervals import (
    AdaptiveHPD,
    AgrestiCoullInterval,
    ArcsineInterval,
    BatchIntervals,
    ClopperPearsonInterval,
    ETCredibleInterval,
    HPDCredibleInterval,
    LogitInterval,
    WaldInterval,
    WilsonInterval,
)
from repro.intervals import kernels
from repro.intervals.batch import _MASS_TOL, et_bounds_batch, hpd_bounds_batch
from repro.intervals.hpd import hpd_bounds
from repro.intervals.kernels import NumpyKernel
from repro.intervals.posterior import BetaPosterior
from repro.intervals.priors import JEFFREYS, KERMAN, UNIFORM
from repro.stats.beta import beta_cdf_batch, beta_pdf_batch, beta_ppf_batch

AGREEMENT_TOL = 1e-8

ALL_METHODS = (
    WaldInterval(),
    WilsonInterval(),
    AgrestiCoullInterval(),
    ClopperPearsonInterval(),
    ArcsineInterval(),
    LogitInterval(),
    ETCredibleInterval(),
    ETCredibleInterval(prior=KERMAN),
    HPDCredibleInterval(),
    HPDCredibleInterval(prior=UNIFORM),
    AdaptiveHPD(),
)


def outcome_evidences(n: int) -> list[Evidence]:
    """Every binomial outcome at sample size *n*, edges included."""
    return [Evidence.from_counts(tau, n) for tau in range(n + 1)]


def assert_batch_matches_scalar(method, evidences, alpha):
    batch = method.compute_batch(evidences, alpha)
    assert len(batch) == len(evidences)
    for i, evidence in enumerate(evidences):
        scalar = method.compute(evidence, alpha)
        assert batch.lower[i] == pytest.approx(scalar.lower, abs=AGREEMENT_TOL)
        assert batch.upper[i] == pytest.approx(scalar.upper, abs=AGREEMENT_TOL)


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
@pytest.mark.parametrize("alpha", [0.10, 0.05, 0.01])
def test_batch_agrees_with_scalar_full_outcome_grid(method, alpha):
    # n=30 is the paper's coverage cell; includes tau=0 and tau=n edges.
    assert_batch_matches_scalar(method, outcome_evidences(30), alpha)


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
def test_batch_agrees_with_scalar_large_n(method):
    evidences = [Evidence.from_counts(tau, 500) for tau in range(0, 501, 13)]
    assert_batch_matches_scalar(method, evidences, 0.05)


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
def test_batch_agrees_on_fractional_effective_counts(method):
    # Design-effect-corrected evidences carry fractional counts.
    rng = np.random.default_rng(7)
    evidences = []
    for _ in range(40):
        n_eff = float(rng.uniform(5.0, 400.0))
        tau_eff = float(rng.uniform(0.0, n_eff))
        mu = tau_eff / n_eff
        evidences.append(
            Evidence(
                mu_hat=mu,
                variance=mu * (1.0 - mu) / n_eff if 0.0 < mu < 1.0 else 1e-6,
                n_effective=n_eff,
                tau_effective=tau_eff,
                n_annotated=int(round(n_eff)),
            )
        )
    assert_batch_matches_scalar(method, evidences, 0.05)


def test_batch_single_element_and_flat_posterior():
    # Uniform prior with no effective data weight approaches the flat
    # posterior; the dedicated closed form must kick in at a = b = 1.
    lower, upper = hpd_bounds_batch(np.array([1.0]), np.array([1.0]), 0.05)
    assert lower[0] == pytest.approx(0.025)
    assert upper[0] == pytest.approx(0.975)


def test_hpd_batch_monotone_shapes_match_closed_forms():
    # tau = n under Jeffreys: increasing posterior, Eq. 10.
    post = BetaPosterior.from_counts(JEFFREYS, 30, 30)
    lower, upper = hpd_bounds_batch(np.array([post.a]), np.array([post.b]), 0.05)
    s_lower, s_upper = hpd_bounds(post, 0.05)
    assert upper[0] == 1.0
    assert lower[0] == pytest.approx(s_lower, abs=AGREEMENT_TOL)
    # tau = 0: decreasing posterior, Eq. 11.
    post = BetaPosterior.from_counts(JEFFREYS, 0, 30)
    lower, upper = hpd_bounds_batch(np.array([post.a]), np.array([post.b]), 0.05)
    s_lower, s_upper = hpd_bounds(post, 0.05)
    assert lower[0] == 0.0
    assert upper[0] == pytest.approx(s_upper, abs=AGREEMENT_TOL)


def test_ahpd_batch_preserves_winning_prior_labels():
    method = AdaptiveHPD()
    evidences = outcome_evidences(30)
    batch = method.compute_batch(evidences, 0.05)
    for i, evidence in enumerate(evidences):
        assert batch[i].method == method.compute(evidence, 0.05).method


def test_posterior_shapes_batch_validates_like_scalar():
    from repro.intervals.batch import posterior_shapes_batch

    # Grossly invalid counts fail on the batch path exactly as
    # BetaPosterior.from_counts fails on the scalar path.
    with pytest.raises(ValidationError):
        posterior_shapes_batch(JEFFREYS, np.array([40.0]), np.array([30.0]))
    with pytest.raises(ValidationError):
        posterior_shapes_batch(JEFFREYS, np.array([-1.0]), np.array([30.0]))
    # Float-noise overshoot inside the scalar tolerance is clamped.
    a, b = posterior_shapes_batch(
        JEFFREYS, np.array([30.0 + 5e-10]), np.array([30.0])
    )
    assert a[0] == pytest.approx(JEFFREYS.a + 30.0)
    assert b[0] == pytest.approx(JEFFREYS.b)


def test_hpd_batch_bathtub_raises():
    with pytest.raises(IntervalError):
        hpd_bounds_batch(np.array([0.5, 2.0]), np.array([0.4, 3.0]), 0.05)


def test_hpd_batch_mixed_shapes_one_call():
    # Interior, increasing, decreasing, and flat rows in a single batch.
    a = np.array([10.0, 5.0, 0.5, 1.0])
    b = np.array([20.0, 0.5, 5.0, 1.0])
    lower, upper = hpd_bounds_batch(a, b, 0.05)
    for i in range(4):
        post = BetaPosterior(a=float(a[i]), b=float(b[i]), prior=JEFFREYS)
        s_lower, s_upper = hpd_bounds(post, 0.05)
        assert lower[i] == pytest.approx(s_lower, abs=AGREEMENT_TOL)
        assert upper[i] == pytest.approx(s_upper, abs=AGREEMENT_TOL)


def test_hpd_batch_random_interior_posteriors_agree():
    rng = np.random.default_rng(11)
    a = rng.uniform(1.01, 500.0, size=300)
    b = rng.uniform(1.01, 500.0, size=300)
    lower, upper = hpd_bounds_batch(a, b, 0.05)
    mass = beta_cdf_batch(upper, a, b) - beta_cdf_batch(lower, a, b)
    np.testing.assert_allclose(mass, 0.95, atol=1e-6)
    for i in range(0, 300, 17):
        post = BetaPosterior(a=float(a[i]), b=float(b[i]), prior=JEFFREYS)
        s_lower, s_upper = hpd_bounds(post, 0.05)
        assert lower[i] == pytest.approx(s_lower, abs=AGREEMENT_TOL)
        assert upper[i] == pytest.approx(s_upper, abs=AGREEMENT_TOL)


def test_et_batch_matches_posterior_ppf():
    a = np.array([3.5, 27.5, 100.0])
    b = np.array([3.5, 3.5, 2.0])
    lower, upper = et_bounds_batch(a, b, 0.05)
    np.testing.assert_allclose(lower, beta_ppf_batch(0.025, a, b))
    np.testing.assert_allclose(upper, beta_ppf_batch(0.975, a, b))


def test_default_compute_batch_loop_fallback():
    # A third-party method that never overrides compute_batch must get
    # the loop fallback from the ABC for free.
    from repro.intervals.base import Interval, IntervalMethod

    class Degenerate(IntervalMethod):
        name = "Degenerate"

        def compute(self, evidence, alpha):
            return Interval(
                lower=evidence.mu_hat,
                upper=evidence.mu_hat,
                alpha=alpha,
                method=self.name,
            )

    evidences = outcome_evidences(10)
    batch = Degenerate().compute_batch(evidences, 0.05)
    assert len(batch) == 11
    np.testing.assert_allclose(batch.lower, [e.mu_hat for e in evidences])
    assert batch.method == "Degenerate"


# ----------------------------------------------------------------------
# BatchIntervals container semantics
# ----------------------------------------------------------------------


def test_batch_intervals_mirrors_interval_accessors():
    method = WilsonInterval()
    evidences = outcome_evidences(12)
    batch = method.compute_batch(evidences, 0.05)
    assert batch.confidence == pytest.approx(0.95)
    np.testing.assert_allclose(batch.width, batch.upper - batch.lower)
    np.testing.assert_allclose(batch.moe, batch.width / 2.0)
    np.testing.assert_allclose(batch.midpoint, (batch.lower + batch.upper) / 2.0)
    for i, interval in enumerate(batch.to_intervals()):
        assert interval.lower == pytest.approx(float(batch.lower[i]))
        assert interval.upper == pytest.approx(float(batch.upper[i]))
        assert interval.method == method.name
        assert batch.contains(0.5)[i] == interval.contains(0.5)


def test_batch_intervals_clipped_stays_in_unit_interval():
    batch = WaldInterval().compute_batch(outcome_evidences(5), 0.05)
    clipped = batch.clipped()
    assert np.all(clipped.lower >= 0.0)
    assert np.all(clipped.upper <= 1.0)


def test_batch_intervals_rejects_disordered_bounds():
    with pytest.raises(ValidationError):
        BatchIntervals(lower=np.array([0.5]), upper=np.array([0.4]), alpha=0.05)


def test_batch_intervals_rejects_nan_bounds():
    # NaN rows must fail loudly, exactly like the scalar Interval.
    with pytest.raises(ValidationError):
        BatchIntervals(
            lower=np.array([0.1, np.nan]), upper=np.array([0.2, 0.3]), alpha=0.05
        )


def test_batch_intervals_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        BatchIntervals(
            lower=np.array([0.1, 0.2]), upper=np.array([0.3]), alpha=0.05
        )


# ----------------------------------------------------------------------
# Vectorised Beta helpers
# ----------------------------------------------------------------------


def test_beta_batch_helpers_match_scalar():
    from repro.stats.beta import beta_cdf, beta_pdf, beta_ppf

    rng = np.random.default_rng(3)
    a = rng.uniform(0.4, 80.0, size=25)
    b = rng.uniform(0.4, 80.0, size=25)
    x = rng.uniform(0.01, 0.99, size=25)
    pdf = beta_pdf_batch(x, a, b)
    cdf = beta_cdf_batch(x, a, b)
    ppf = beta_ppf_batch(cdf, a, b)
    for i in range(25):
        assert pdf[i] == pytest.approx(beta_pdf(x[i], a[i], b[i]), rel=1e-12)
        assert cdf[i] == pytest.approx(beta_cdf(x[i], a[i], b[i]), rel=1e-12)
        assert ppf[i] == pytest.approx(beta_ppf(cdf[i], a[i], b[i]), abs=1e-10)
    # Round-trip only where the CDF has not saturated to 0/1 (deep-tail
    # x values lose the quantile to float rounding on any code path).
    open_mask = (cdf > 1e-12) & (cdf < 1.0 - 1e-12)
    np.testing.assert_allclose(ppf[open_mask], x[open_mask], atol=1e-8)


def test_beta_batch_helpers_validate_shapes_and_quantiles():
    with pytest.raises(ValidationError):
        beta_pdf_batch(0.5, np.array([1.0, -2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        beta_ppf_batch(1.5, np.array([2.0]), np.array([2.0]))


# ----------------------------------------------------------------------
# Evidence fast-path constructor
# ----------------------------------------------------------------------


def test_from_counts_fast_matches_validating_path():
    for tau, n in [(0, 30), (15, 30), (30, 30), (7, 11)]:
        fast = Evidence.from_counts_fast(tau, n)
        slow = Evidence.from_counts(tau, n)
        assert fast == slow


def test_from_counts_still_validates():
    with pytest.raises(ValidationError):
        Evidence.from_counts(31, 30)
    with pytest.raises(ValidationError):
        Evidence.from_counts(1, 0)


# ----------------------------------------------------------------------
# Pooled solving: compute_batch_pooled and the solve_batch surface
# ----------------------------------------------------------------------

from hypothesis import given, settings as hyp_settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.intervals import (  # noqa: E402
    active_solve_pool,
    compute_batch_pooled,
    use_solve_pool,
)

segment_lists = st.lists(
    st.lists(
        st.tuples(st.integers(0, 25), st.integers(1, 25)).map(
            lambda pair: (min(pair), max(max(pair), 1))
        ),
        min_size=0,
        max_size=6,
    ),
    min_size=1,
    max_size=5,
)


@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
@given(segments=segment_lists, alpha=st.sampled_from([0.10, 0.05, 0.01]))
@hyp_settings(max_examples=25, deadline=None)
def test_pooled_slices_bit_identical_to_standalone(method, segments, alpha):
    # The broker's correctness foundation: pooling any segmentation of
    # evidences into one compute_batch and slicing back must reproduce
    # each segment's standalone compute_batch BYTE for byte — bounds,
    # labels, and metadata alike.
    evidence_segments = [
        [Evidence.from_counts_fast(tau, n) for tau, n in segment]
        for segment in segments
    ]
    pooled = compute_batch_pooled(method, evidence_segments, alpha)
    assert len(pooled) == len(evidence_segments)
    for batch, segment in zip(pooled, evidence_segments):
        alone = method.compute_batch(segment, alpha)
        assert batch.lower.tobytes() == alone.lower.tobytes()
        assert batch.upper.tobytes() == alone.upper.tobytes()
        assert batch.alpha == alone.alpha
        assert batch.method == alone.method
        assert batch.labels == alone.labels


def test_solve_batch_is_compute_batch_without_a_pool():
    evidences = outcome_evidences(8)
    for method in ALL_METHODS:
        direct = method.compute_batch(evidences, 0.05)
        routed = method.solve_batch(evidences, 0.05)
        assert routed.lower.tobytes() == direct.lower.tobytes()
        assert routed.upper.tobytes() == direct.upper.tobytes()


def test_solve_batch_routes_through_the_ambient_pool():
    class Recorder:
        def __init__(self):
            self.calls = []

        def solve(self, method, evidences, alpha):
            self.calls.append((method, tuple(evidences), alpha))
            return method.compute_batch(evidences, alpha)

    pool = Recorder()
    evidences = outcome_evidences(4)
    assert active_solve_pool() is None
    with use_solve_pool(pool):
        assert active_solve_pool() is pool
        WilsonInterval().solve_batch(evidences, 0.05)
    assert active_solve_pool() is None
    assert len(pool.calls) == 1
    assert pool.calls[0][2] == 0.05


def test_use_solve_pool_is_per_context():
    # Two threads installing different pools must not see each other's.
    import threading

    seen = {}

    def install(name):
        with use_solve_pool(name):
            time_ordered.wait()
            seen[name] = active_solve_pool()

    time_ordered = threading.Barrier(2)
    threads = [
        threading.Thread(target=install, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == {"a": "a", "b": "b"}


# A mix of interior shapes: symmetric-ish, mode near each boundary,
# large n, and fractional (TWCS-style effective) counts.
FALLBACK_A = np.array([3.5, 1.0 + 1e-9, 1.0005, 1e5 + 0.5, 9.0e4 + 1.0, 1 / 3 + 17.4, 5.25])
FALLBACK_B = np.array([2.5, 40.0, 2.0, 2.0e3 + 0.5, 1.0e4 + 1.0, 1 / 3 + 3.6, 1.0 + 1e-7])


def assert_scalar_fallback_rows(alpha):
    lower, upper = hpd_bounds_batch(FALLBACK_A, FALLBACK_B, alpha)
    for i, (a, b) in enumerate(zip(FALLBACK_A, FALLBACK_B)):
        post = BetaPosterior(a=float(a), b=float(b), prior=JEFFREYS)
        assert (lower[i], upper[i]) == hpd_bounds(post, alpha, solver="scalar")
    mass = beta_cdf_batch(upper, FALLBACK_A, FALLBACK_B) - beta_cdf_batch(
        lower, FALLBACK_A, FALLBACK_B
    )
    np.testing.assert_allclose(mass, 1.0 - alpha, rtol=0.0, atol=_MASS_TOL)


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_hpd_batch_flagged_newton_rows_fall_back_to_scalar(monkeypatch, alpha):
    def flag_every_row(self, a, b, alpha):
        return np.zeros_like(a), np.ones_like(a), np.ones(a.shape, dtype=bool)

    monkeypatch.setattr(NumpyKernel, "newton_interior", flag_every_row)
    assert_scalar_fallback_rows(alpha)


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_hpd_batch_stuck_newton_rows_fall_back_to_scalar(monkeypatch, alpha):
    # One damped step leaves every row off its mass target, so the
    # validation sends each one to the scalar solver.
    monkeypatch.setattr(kernels, "NEWTON_MAX_ITER", 1)
    assert_scalar_fallback_rows(alpha)
