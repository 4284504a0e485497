import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev
from scipy.special import erfcx
from scipy.special import ndtr as scipy_ndtr

import cyclone_pp
from cyclone_pp import scoring
from cyclone_pp.domain import ReportOrigin
from cyclone_pp.scoring import (
    GaussianField,
    crps_gaussian,
    crps_gradient,
    crps_quadrature_oracle,
    crps_slopes,
    crpss,
    make_weights,
    ndtr,
    weighted_loss,
)
from tests.conftest import make_report

# Frozen from crps_quadrature_oracle (integral definition, split at y).
CRPS_0_1_0 = 0.2336949772551090
CRPS_0_1_10 = 9.435810416452243


class TestCrpsGaussian:
    def test_standard_normal_at_origin(self):
        assert crps_gaussian(0.0, 1.0, 0.0) == pytest.approx(CRPS_0_1_0, abs=1e-6)

    def test_far_tail_value(self):
        assert crps_gaussian(0.0, 1.0, 10.0) == pytest.approx(CRPS_0_1_10, abs=1e-6)

    def test_degenerate_spread_tends_to_absolute_error(self):
        assert crps_gaussian(0.0, 1e-8, 7.0) == pytest.approx(7.0, rel=1e-6)

    def test_vectorized_matches_scalar(self):
        mu = np.array([0.0, 1.0, -2.0])
        sigma = np.array([1.0, 2.0, 0.5])
        y = np.array([0.3, -1.0, 4.0])
        vec = crps_gaussian(mu, sigma, y)
        for i in range(3):
            assert vec[i] == pytest.approx(crps_gaussian(mu[i], sigma[i], y[i]))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError):
            crps_gaussian(0.0, sigma, 1.0)

    @given(st.floats(-100, 100), st.floats(0.01, 100), st.floats(-100, 100))
    @settings(max_examples=200)
    def test_nonnegative(self, mu, sigma, y):
        assert crps_gaussian(mu, sigma, y) >= 0.0

    @given(st.floats(-10, 10), st.floats(0.1, 10), st.floats(-10, 10),
           st.floats(0.01, 50))
    @settings(max_examples=200)
    def test_scale_equivariance(self, mu, sigma, y, c):
        lhs = crps_gaussian(c * mu, c * sigma, c * y)
        rhs = c * crps_gaussian(mu, sigma, y)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestQuadratureOracle:
    def test_oracle_vs_closed_form_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            mu = rng.uniform(-50, 50)
            sigma = 10 ** rng.uniform(-2, 2)
            y = mu + sigma * rng.uniform(-8, 8)
            q = crps_quadrature_oracle(mu, sigma, y)
            c = crps_gaussian(mu, sigma, y)
            assert abs(c - q) <= 1e-6 * max(abs(q), 1e-12)

    def test_symmetric_pair(self):
        a = crps_quadrature_oracle(2.0, 1.5, 5.0)   # y - mu = 3
        b = crps_quadrature_oracle(2.0, 1.5, -1.0)  # mu - y = 3
        assert a == pytest.approx(b, rel=1e-9)

    def test_nonnegative(self):
        assert crps_quadrature_oracle(3.0, 0.2, 2.9) >= 0.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            crps_quadrature_oracle(0.0, -2.0, 1.0)


class TestCrpsGradient:
    def test_dmu_zero_at_center(self):
        dmu, _ = crps_gradient(0.0, 1.0, 0.0)
        assert dmu == pytest.approx(0.0, abs=1e-15)

    def test_dsigma_at_center(self):
        # frozen: central finite difference of crps_gaussian, h=1e-5
        _, dsigma = crps_gradient(0.0, 1.0, 0.0)
        assert dsigma == pytest.approx(0.2336949772, abs=1e-6)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(100):
            mu = rng.uniform(-20, 20)
            sigma = 10 ** rng.uniform(-1, 1.5)
            y = mu + sigma * rng.uniform(-6, 6)
            dmu, dsigma = crps_gradient(mu, sigma, y)
            fd_mu = (crps_gaussian(mu + h, sigma, y) - crps_gaussian(mu - h, sigma, y)) / (2 * h)
            fd_sigma = (crps_gaussian(mu, sigma + h, y) - crps_gaussian(mu, sigma - h, y)) / (2 * h)
            assert dmu == pytest.approx(fd_mu, rel=1e-5, abs=1e-7)
            assert dsigma == pytest.approx(fd_sigma, rel=1e-5, abs=1e-7)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            crps_gradient(0.0, 0.0, 1.0)


class TestWeights:
    def test_three_originals(self):
        w = make_weights([1, 2, 3], 3)
        assert np.allclose(w, np.array([1, 2, 4]) / 7)

    def test_six_slot_augmented_case(self):
        # subset below k=3: indices {1, 1.5, 2} each with a noise copy
        idx = [1.0, 1.0, 1.5, 1.5, 2.0, 2.0]
        w = make_weights(idx, 3)
        assert np.allclose(w, np.array([1, 1, 2, 2, 4, 4]) / 14)

    def test_single_report(self):
        assert make_weights([1], 1) == pytest.approx([1.0])

    def test_weights_sum_to_one_over_reports(self):
        idx = [1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 2.5, 2.5, 3.0, 3.0]
        assert make_weights(idx, 4).sum() == pytest.approx(1.0)

    def test_nondecreasing_in_recency(self):
        w = make_weights([1, 1.5, 2, 2.5, 3], 3)
        assert np.all(np.diff(w) >= 0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            make_weights([1, 2, 5], 3)


class TestWeightedLoss:
    def _pred_for(self, rep, mu_shift=0.0, sigma=5.0):
        shape = rep.observation.shape
        return GaussianField(mu=rep.observation + mu_shift, sigma=np.full(shape, sigma))

    def test_single_report_is_masked_mean(self, small_domain):
        rep = make_report(1, seed=3)
        pred = self._pred_for(rep, mu_shift=2.0)
        loss = weighted_loss([pred], [rep], 1, small_domain.land_mask)
        m = small_domain.land_mask
        expected = float(np.mean(crps_gaussian(pred.mu[m], pred.sigma[m], rep.observation[m])))
        assert loss == pytest.approx(expected)

    def test_three_report_ratio_1_2_4(self, small_domain):
        reps = [make_report(i, seed=i) for i in (1, 2, 3)]
        preds = [self._pred_for(r, mu_shift=s) for r, s in zip(reps, (1.0, -2.0, 0.5))]
        loss = weighted_loss(preds, reps, 3, small_domain.land_mask)
        m = small_domain.land_mask
        per = [float(np.mean(crps_gaussian(p.mu[m], p.sigma[m], r.observation[m])))
               for p, r in zip(preds, reps)]
        assert loss == pytest.approx((1 * per[0] + 2 * per[1] + 4 * per[2]) / 7)

    def test_duplicate_with_shared_weight_unchanged(self, small_domain):
        # duplicating a report splits its index weight across the two copies
        rep1, rep2 = make_report(1, seed=1), make_report(2, seed=2)
        preds = [self._pred_for(rep1), self._pred_for(rep2)]
        base = weighted_loss(preds, [rep1, rep2], 2, small_domain.land_mask)
        rep2n = make_report(2, seed=2, origin=ReportOrigin.NOISE_INJECTED)
        dup = weighted_loss(preds + [preds[1]], [rep1, rep2, rep2n], 2,
                            small_domain.land_mask)
        assert dup == pytest.approx(base)

    def test_reorder_invariance(self, small_domain):
        reps = [make_report(i, seed=i) for i in (1, 2, 3)]
        preds = [self._pred_for(r) for r in reps]
        a = weighted_loss(preds, reps, 3, small_domain.land_mask)
        order = [2, 0, 1]
        b = weighted_loss([preds[i] for i in order], [reps[i] for i in order],
                          3, small_domain.land_mask)
        assert a == pytest.approx(b)

    def test_misaligned_lists_error(self, small_domain):
        rep = make_report(1)
        with pytest.raises(ValueError):
            weighted_loss([], [rep], 1, small_domain.land_mask)

    def test_empty_mask_error(self, small_domain):
        rep = make_report(1)
        with pytest.raises(ValueError):
            weighted_loss([self._pred_for(rep)], [rep], 1,
                          np.zeros(small_domain.shape, bool))


class TestCrpss:
    def test_model_equals_reference(self):
        ref = np.array([1.0, 2.0, 3.0])
        assert np.allclose(crpss(ref, ref), 0.0)

    def test_perfect_model(self):
        assert crpss(0.0, 2.0) == pytest.approx(1.0)

    def test_twice_reference(self):
        assert crpss(4.0, 2.0) == pytest.approx(-1.0)

    def test_zero_reference_is_nan(self):
        out = crpss(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        assert np.isnan(out[0]) and out[1] == pytest.approx(0.5)


class TestGaussianField:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            GaussianField(mu=np.zeros((2, 2)), sigma=np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianField(mu=np.zeros((2, 2)), sigma=np.ones((2, 3)))

    def test_crps_method(self):
        f = GaussianField(mu=np.zeros((2, 2)), sigma=np.ones((2, 2)))
        assert f.crps(np.zeros((2, 2)))[0, 0] == pytest.approx(CRPS_0_1_0, abs=1e-6)


class TestNdtr:
    """The numpy Phi against scipy.special.ndtr, which only tests import."""

    def test_within_1e_15_of_scipy(self):
        z = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                            np.random.default_rng(3).normal(0.0, 8.0, 200_000)])
        assert np.max(np.abs(ndtr(z) - scipy_ndtr(z))) <= 1e-15

    def test_lower_tail_relative_error(self):
        # exceedance_probability relies on it far into the tail
        z = np.linspace(-37.0, 0.0, 370_001)
        assert np.max(np.abs(ndtr(z) / scipy_ndtr(z) - 1.0)) <= 1e-12

    def test_infinities_nan_and_symmetry(self):
        assert ndtr(np.inf) == 1.0 and ndtr(-np.inf) == 0.0
        assert np.isnan(ndtr(np.nan))
        assert ndtr(np.array([-np.inf, np.nan, np.inf])).tolist()[::2] == [0.0, 1.0]
        z = np.random.default_rng(4).normal(0.0, 10.0, 100_000)
        assert np.all(np.abs(ndtr(z) + ndtr(-z) - 1.0) <= np.spacing(1.0))

    def test_scalar_in_scalar_out(self):
        assert isinstance(ndtr(0.3), float)
        assert ndtr(0.3) == pytest.approx(scipy_ndtr(0.3), rel=0, abs=1e-15)

    def test_coefficient_table_reproduces(self):
        # the fit that made scoring._ERFCX_IN_U: erfcx at 4,000 Chebyshev
        # nodes in u = (x - 3) / (x + 3), degree 22, converted to powers
        n = 4000
        u = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        x = 3.0 * (1.0 + u) / (1.0 - u)
        powers = chebyshev.cheb2poly(chebyshev.chebfit(u, erfcx(x), 22))
        np.testing.assert_allclose(powers, scoring._ERFCX_IN_U, rtol=0, atol=1e-14)


class TestTrainingPhi:
    """crps_slopes, the training loss's kernel, against scipy.special.ndtr:
    its 2 Phi - 1 follows Abramowitz & Stegun 26.2.17 (within 1.5e-7)."""

    def test_within_2e_7_of_scipy(self):
        z = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                            np.random.default_rng(5).normal(0.0, 3.0, 200_000)])
        assert np.max(np.abs(crps_slopes(z)[0] - (2.0 * scipy_ndtr(z) - 1.0))) <= 2e-7

    def test_infinities_and_nan(self):
        dmu, dsigma = crps_slopes(np.array([-np.inf, np.inf, np.nan]))
        assert dmu[:2].tolist() == [-1.0, 1.0] and np.isnan(dmu[2])
        assert dsigma[:2].tolist() == [-1.0 / np.sqrt(np.pi)] * 2 and np.isnan(dsigma[2])

    def test_odd_in_z(self):
        z = np.concatenate([np.linspace(0.0, 40.0, 40_001),
                            np.abs(np.random.default_rng(6).normal(0.0, 3.0, 100_000))])
        assert crps_slopes(-z)[0].tobytes() == np.negative(crps_slopes(z)[0]).tobytes()

    def test_sigma_slope_is_the_density_term(self):
        z = np.linspace(-40.0, 40.0, 80_001)
        want = 2.0 * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) - 1.0 / np.sqrt(np.pi)
        np.testing.assert_allclose(crps_slopes(z)[1], want, rtol=0, atol=1e-15)

    def test_score_from_the_slopes_is_the_crps(self):
        # the CRPS is homogeneous of degree one in (mu - y, sigma); Phi's
        # error of at most 7.5e-8 moves the score by sigma |z| twice that
        rng = np.random.default_rng(7)
        mu, sigma = rng.normal(0.0, 3.0, 1000), rng.uniform(0.1, 4.0, 1000)
        y = rng.normal(size=1000)
        z = (mu - y) / sigma
        dmu, dsigma = crps_slopes(z)
        error = np.abs(sigma * (z * dmu + dsigma) - crps_gaussian(mu, sigma, y))
        assert np.all(error <= sigma * np.abs(z) * 1.5e-7 + 1e-15)


def test_only_the_oracle_imports_scipy_integrate():
    # a fresh interpreter: this test process holds scipy already. The CLI
    # loads no scipy module at all; the oracle loads both it needs
    script = textwrap.dedent("""
        import sys
        import cyclone_pp.cli
        loaded = [k for k in sys.modules if k == "scipy" or k.startswith("scipy.")]
        assert not loaded, f"loaded by import cyclone_pp.cli: {loaded}"
        from cyclone_pp.scoring import crps_gaussian, crps_quadrature_oracle
        got, want = crps_quadrature_oracle(0, 1, 0.3), crps_gaussian(0, 1, 0.3)
        assert "scipy.integrate" in sys.modules and "scipy.special" in sys.modules
        assert abs(got - want) < 1e-9, (got, want)
    """)
    src = str(Path(cyclone_pp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
