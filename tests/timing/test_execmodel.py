"""Execution-model fitting tests (Section 4.2's constrained fit)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.timing.execmodel import ExecModel, design_matrix, fit_exec_model


class TestEstimate:
    def test_formula(self):
        model = ExecModel(overheads=(3.0, 0.0), work=2.0, intercept=10.0)
        # 10 + 3*w1 + 2*w1*w2
        assert model.estimate((4, 5)) == 10 + 3 * 4 + 2 * 20

    def test_depth_checked(self):
        model = ExecModel(overheads=(1.0,), work=1.0, intercept=0.0)
        with pytest.raises(ValueError):
            model.estimate((1, 2))

    @pytest.mark.parametrize("field", ["overheads", "work", "intercept"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, field, bad):
        coefficients = dict(overheads=(1.0,), work=1.0, intercept=0.0)
        coefficients[field] = (bad,) if field == "overheads" else bad
        with pytest.raises(ValueError, match="finite"):
            ExecModel(**coefficients)


class TestDesignMatrix:
    def test_columns(self):
        matrix = design_matrix([(2, 3, 4)])
        # prefix products 2, 6 (levels 1..L-1), full product 24, intercept.
        np.testing.assert_allclose(matrix, [[2, 6, 24, 1]])


class TestFit:
    def samples(self):
        return [(w1, w2) for w1 in (1, 2, 4, 8, 16)
                for w2 in (1, 3, 9, 27)]

    def test_exact_recovery(self):
        truth = ExecModel(overheads=(5.0, 0.0), work=1.5, intercept=40.0)
        samples = self.samples()
        measured = [truth.estimate(w) for w in samples]
        fitted = fit_exec_model(samples, measured)
        for widths in [(3, 2), (10, 20), (1, 1)]:
            assert fitted.estimate(widths) == \
                pytest.approx(truth.estimate(widths), rel=1e-6)

    def test_upper_bound_constraint(self):
        """No measured sample may exceed its estimate (WCET property)."""
        samples = self.samples()
        rng = np.random.default_rng(0)
        truth = ExecModel(overheads=(5.0, 0.0), work=1.5, intercept=40.0)
        measured = [
            truth.estimate(w) * float(rng.uniform(0.8, 1.0))
            for w in samples
        ]
        fitted = fit_exec_model(samples, measured)
        for widths, value in zip(samples, measured):
            assert fitted.estimate(widths) >= value - 1e-6

    def test_nonnegative_coefficients(self):
        samples = self.samples()
        measured = [100.0 for _ in samples]
        fitted = fit_exec_model(samples, measured)
        assert all(o >= 0 for o in fitted.overheads)
        assert fitted.work >= 0
        assert fitted.intercept >= 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_exec_model([], [])
        with pytest.raises(ValueError):
            fit_exec_model([(1,)], [1.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(st.tuples(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=200.0),
))
def test_fit_upper_bounds_model_generated_data(params):
    o1, work, intercept = params
    truth = ExecModel(overheads=(o1, 0.0), work=work, intercept=intercept)
    samples = [(w1, w2) for w1 in (1, 3, 7) for w2 in (1, 4, 9)]
    measured = [truth.estimate(w) for w in samples]
    fitted = fit_exec_model(samples, measured)
    for widths, value in zip(samples, measured):
        assert fitted.estimate(widths) >= value - 1e-5
