import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.special import stdtr

from statspace import (
    DomainError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    RankDeficiencyError,
    SchemaError,
    fit_ols,
    t_cdf,
)
from statspace import regression
from statspace.regression import summary_csv, summary_json, summary_text


def normal_equations_oracle(X, y):
    """Brute force: normal equations with explicit small-matrix inversion."""
    X = np.column_stack([np.ones(len(y)), X])
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    residuals = y - X @ beta
    df = len(y) - X.shape[1]
    sigma2 = float(residuals @ residuals) / df
    se = np.sqrt(sigma2 * np.diag(xtx_inv))
    return beta, se, df


def t_density(u, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
        df * math.pi
    )
    return c * (1.0 + u * u / df) ** (-(df + 1) / 2)


def t_cdf_quadrature(x, df):
    value, _ = quad(t_density, 0.0, x, args=(df,), epsabs=1e-14, limit=400)
    return 0.5 + value


class TestFitOls:
    def test_exact_fit_recovers_generator(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(30, 3))
        y = 0.35 + 0.17 * X[:, 0] - 0.20 * X[:, 1] + 0.09 * X[:, 2]
        fit = fit_ols(X, y)
        np.testing.assert_allclose(
            fit.coefficients, [0.35, 0.17, -0.20, 0.09], atol=1e-10
        )
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.term_names == ["intercept", "x1", "x2", "x3"]
        assert fit.df_residual == 26

    def test_constant_outcome(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 1))
        with pytest.warns(UserWarning, match="degenerate"):
            fit = fit_ols(X, [1.0, 1.0, 1.0, 1.0])
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 0.0

    def test_identity_fit(self):
        y = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        fit = fit_ols(y[:, None], y)
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficients[1] == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 2))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        with pytest.raises(RankDeficiencyError, match="x"):
            fit_ols(X, rng.normal(size=12), term_names=["x1", "x2", "x3"])

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_ols(np.eye(3), [1.0, 2.0, 3.0])

    def test_outcome_length_mismatch(self):
        with pytest.raises(SchemaError):
            fit_ols(np.ones((4, 1)), [1.0, 2.0])

    def test_residual_identities(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40) * 3.0 + 2.0
        fit = fit_ols(X, y)
        residuals = y - (fit.coefficients[0] + X @ fit.coefficients[1:])
        scale = 1e-9 * len(y) * max(1.0, float(np.abs(y).max()))
        assert abs(residuals.sum()) < scale
        assert np.abs(X.T @ residuals).max() < scale

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        fit = fit_ols(X, y)
        scaled = X.copy()
        scaled[:, 1] = X[:, 1] * 250.0
        refit = fit_ols(scaled, y)
        assert refit.r_squared == pytest.approx(fit.r_squared, abs=1e-12)
        assert refit.coefficients[2] == pytest.approx(
            fit.coefficients[2] / 250.0, rel=1e-10
        )
        assert refit.coefficients[1] == pytest.approx(fit.coefficients[1], rel=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(8, 40))
            q = int(rng.integers(1, min(6, n - 2)))
            X = rng.normal(size=(n, q))
            y = rng.normal(size=n)
            fit = fit_ols(X, y)
            beta, se, df = normal_equations_oracle(X, y)
            np.testing.assert_allclose(fit.coefficients, beta, atol=1e-8)
            np.testing.assert_allclose(fit.std_errors, se, atol=1e-8)
            assert fit.df_residual == df

    def test_p_value_symmetry_and_range(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        fit = fit_ols(X, y)
        assert ((fit.p_values >= 0.0) & (fit.p_values <= 1.0)).all()
        # two-sided p depends only on |t|
        for j in range(4):
            t = fit.coefficients[j] / fit.std_errors[j]
            p = 2.0 * t_cdf(-abs(t), fit.df_residual)
            assert fit.p_values[j] == p

    def test_tiny_p_values_keep_precision(self):
        # a near-exact fit: |t| is so large that 1 - cdf(|t|) rounds to 0
        rng = np.random.default_rng(10)
        X = rng.normal(size=(200, 2))
        y = 0.5 + 0.2 * X[:, 0] - 0.1 * X[:, 1] + rng.normal(scale=0.03, size=200)
        fit = fit_ols(X, y)
        t = np.abs(fit.coefficients / fit.std_errors)
        assert (1.0 - stdtr(fit.df_residual, t) == 0.0).all()
        assert (fit.p_values > 0.0).all()
        assert fit.p_values.max() < 1e-100
        np.testing.assert_allclose(
            fit.p_values, 2.0 * stdtr(fit.df_residual, -t), rtol=1e-12, atol=0.0
        )


class TestTCdf:
    def test_center(self):
        for df in (1, 2, 30):
            assert t_cdf(0.0, df) == 0.5

    def test_limits(self):
        assert t_cdf(1e12, 5) == pytest.approx(1.0, abs=1e-15)
        assert t_cdf(-1e12, 5) == pytest.approx(0.0, abs=1e-15)
        # squaring overflows for huge x; both tails collapse to the limit
        assert t_cdf(1e300, 2) == 1.0
        assert t_cdf(-1e300, 2) == 0.0

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                t_cdf(bad, 10)

    def test_df_validation(self):
        with pytest.raises(ParameterError):
            t_cdf(1.0, 0)

    def test_against_quadrature(self):
        worst = 0.0
        for df in (1, 2, 3, 5, 10, 25, 30, 100):
            for x in np.linspace(-6.0, 6.0, 13):
                got = t_cdf(float(x), df)
                ref = t_cdf_quadrature(float(x), df)
                worst = max(worst, abs(got - ref))
        assert worst < 1e-10

    def test_known_point(self):
        # df=1 is a Cauchy distribution: F(x) = 1/2 + arctan(x)/pi
        assert t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-14)
        assert t_cdf(-1.0, 1) == pytest.approx(0.25, abs=1e-14)

    def test_complement_identity(self):
        for x in (0.3, 1.7, 4.2):
            assert t_cdf(x, 9) + t_cdf(-x, 9) == pytest.approx(1.0, abs=1e-14)


def random_designs(count, collinearity):
    """(design with its intercept column, rng) pairs: columns scaled over 1e-2..1e2.

    Half the designs with two or more predictors get a near-collinear pair:
    one column is a multiple of another plus noise of relative size
    ``10**uniform(*collinearity)``.
    """
    rng = np.random.default_rng(20)
    for _ in range(count):
        n = int(rng.integers(8, 60))
        q = int(rng.integers(1, min(8, n - 2)))
        X = rng.normal(size=(n, q)) * 10.0 ** rng.uniform(-2, 2, size=q)
        if q >= 2 and rng.random() < 0.5:
            i, j = rng.choice(q, 2, replace=False)
            noise = 10.0 ** rng.uniform(*collinearity) * np.abs(X[:, i]).max()
            X[:, j] = X[:, i] * rng.uniform(0.5, 2.0) + noise * rng.normal(size=n)
        yield np.column_stack([np.ones(n), X]), rng


class TestPivotedQr:
    """The numpy QR against LAPACK's ``dgeqp3`` (through scipy) and ``lstsq``."""

    @pytest.mark.parametrize("collinearity", [(-2, -1), (-9, -3)], ids=["near", "nearer"])
    def test_pivots_match_lapack(self, collinearity):
        for X, rng in random_designs(300, collinearity):
            _, _, pivot = regression._pivoted_qr(X, rng.normal(size=len(X)))
            _, _, lapack = scipy.linalg.qr(X, mode="economic", pivoting=True)
            np.testing.assert_array_equal(pivot, lapack)

    def test_coefficients_match_lstsq(self):
        # Two backward-stable solvers agree to about cond(X)^2 * eps; these
        # designs keep the column-scaled condition number below ~1e3. The
        # error is measured with each coefficient times its column's norm,
        # which column scaling leaves unchanged.
        for X, rng in random_designs(300, (-2, -1)):
            scale = np.linalg.norm(X, axis=0)
            y = (X / scale) @ rng.normal(size=X.shape[1]) + 0.1 * rng.normal(size=len(X))
            fit = fit_ols(X[:, 1:], y)
            ref = np.linalg.lstsq(X, y, rcond=None)[0]
            gap = np.linalg.norm((fit.coefficients - ref) * scale)
            assert gap <= 1e-10 * np.linalg.norm(ref * scale)


class TestTCdfAgainstStdtr:
    DFS = [*range(1, 401), 10**3, 10**4, 10**5]
    T = np.concatenate([-np.logspace(-3, 3, 121), np.logspace(-3, 3, 121)])

    def test_relative_error(self):
        worst = 0.0
        for df in self.DFS:
            ref = stdtr(df, self.T)
            got = np.array([t_cdf(float(t), df) for t in self.T])
            kept = ref > 1e-300
            worst = max(worst, float(np.max(np.abs(got[kept] - ref[kept]) / ref[kept])))
        assert worst <= 1e-12

    def test_center_is_exactly_half(self):
        for df in self.DFS:
            assert t_cdf(0.0, df) == 0.5
            assert t_cdf(-0.0, df) == 0.5

    def test_cauchy_closed_form(self):
        for t in self.T:
            got = t_cdf(float(t), 1)
            assert abs(got - (0.5 + math.atan(t) / math.pi)) <= 1e-15
            # the same function without the cancellation of 1/2 - atan(|t|)/pi
            assert got == pytest.approx(math.atan2(1.0, -t) / math.pi, rel=1e-14, abs=0.0)

    def test_tail_beyond_squaring_overflow(self):
        # t*t overflows, but the Cauchy tail 1/(pi |t|) is a normal float
        assert t_cdf(-1e200, 1) == pytest.approx(1 / (math.pi * 1e200), rel=1e-14)
        assert t_cdf(1e200, 1) == 1.0

    def test_terms_do_not_grow_with_df(self, monkeypatch):
        # The finite series of A&S 26.7.3/26.7.4 would take df/2 = 50,000
        # terms here, and its tail sum millions near |t| = 1.3.
        monkeypatch.setattr(regression, "MAX_TERMS", 200)
        for df in (10**5, 10**9):
            for t in [*self.T, -1.0, 1.0]:
                t_cdf(float(t), df)
        monkeypatch.setattr(regression, "MAX_TERMS", 20)
        with pytest.raises(NumericalError, match="20 terms"):
            t_cdf(-1.0, 10**5)


class TestSummaries:
    def _fit(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        y = 0.4 + 0.2 * X[:, 0] + rng.normal(scale=0.05, size=30)
        return fit_ols(X, y, term_names=["PC2", "PC3"])

    def test_text_layout(self):
        text = summary_text(self._fit())
        lines = text.splitlines()
        assert lines[0].split() == ["Term", "Coefficient", "Std", "Error", "p-value"]
        assert lines[1].startswith("intercept")
        assert "<0.001" in text
        assert any(line.startswith("R-squared:") for line in lines)

    def test_json_round_trip(self):
        import json

        fit = self._fit()
        doc = json.loads(summary_json(fit))
        assert [t["term"] for t in doc["terms"]] == ["intercept", "PC2", "PC3"]
        assert doc["terms"][0]["coefficient"] == fit.coefficients[0]
        assert doc["r_squared"] == fit.r_squared
        assert doc["df_residual"] == fit.df_residual

    def test_csv_full_precision(self, tmp_path):
        fit = self._fit()
        path = tmp_path / "fit.csv"
        summary_csv(fit, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "term,coefficient,std_error,p_value"
        first = lines[1].split(",")
        assert first[0] == "intercept"
        assert float(first[1]) == fit.coefficients[0]
