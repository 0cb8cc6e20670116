"""Ordinary least squares with standard errors, p-values, and R-squared.

Every fit has an intercept. Coefficients come from a column-pivoted QR
factorization rather than normal equations, both for stability and so rank
deficiency can be detected (and the offending columns named) from the R
pivots. Two-sided p-values use the exact small-sample Student t distribution
(``scipy.special.stdtr``), evaluated in the lower tail so that tiny p-values
keep their precision instead of rounding to 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import files
from .errors import (
    DomainError,
    InsufficientDataError,
    ParameterError,
    RankDeficiencyError,
    SchemaError,
    ValidationError,
)

# Relative pivot threshold below which a design column counts as dependent.
RANK_TOL = 1e-10

INTERCEPT_NAME = "intercept"


@dataclass
class RegressionFit:
    """Coefficient table plus fit summary for one OLS regression."""

    term_names: list[str]
    coefficients: np.ndarray
    std_errors: np.ndarray
    p_values: np.ndarray
    r_squared: float
    df_residual: int

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.std_errors = np.asarray(self.std_errors, dtype=float)
        self.p_values = np.asarray(self.p_values, dtype=float)
        q = len(self.term_names)
        for name, arr in (
            ("coefficients", self.coefficients),
            ("std_errors", self.std_errors),
            ("p_values", self.p_values),
        ):
            if arr.shape != (q,):
                raise ValidationError(f"{name} length does not match term_names")
        if self.df_residual <= 0:
            raise ValidationError("df_residual must be positive")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValidationError("r_squared must lie in [0, 1]")


def fit_ols(
    design: np.ndarray,
    outcome: Sequence[float],
    term_names: Sequence[str] | None = None,
) -> RegressionFit:
    """Least-squares fit of ``outcome`` on an intercept and the design columns.

    ``term_names`` labels the predictor columns (defaults x1..xq); the
    intercept term always comes first. A constant outcome yields R-squared 0
    with a degenerate-outcome warning rather than an error.
    """
    X = np.asarray(design, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(outcome, dtype=float)
    n, q = X.shape
    if y.shape != (n,):
        raise SchemaError(f"outcome length {y.shape} does not match {n} rows")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ValidationError("design and outcome must be finite")

    names = list(term_names) if term_names is not None else [f"x{j + 1}" for j in range(q)]
    if len(names) != q:
        raise ParameterError(f"expected {q} term names, got {len(names)}")
    X = np.column_stack([np.ones(n), X])
    names = [INTERCEPT_NAME, *names]
    n_terms = X.shape[1]
    if n <= n_terms:
        raise InsufficientDataError(
            f"need more than {n_terms} observations for {n_terms} terms, got {n}"
        )

    import scipy.linalg  # only `regress` needs it; keeps other commands' start-up short

    Q, R, pivot = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    dependent = np.flatnonzero(diag < RANK_TOL * diag[0])
    if dependent.size:
        bad = sorted(names[pivot[j]] for j in dependent)
        raise RankDeficiencyError(f"design columns are linearly dependent: {bad}")

    beta_pivoted = scipy.linalg.solve_triangular(R, Q.T @ y)
    beta = np.empty(n_terms)
    beta[pivot] = beta_pivoted

    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    df = n - n_terms
    sigma2 = rss / df

    r_inv = scipy.linalg.solve_triangular(R, np.eye(n_terms))
    unscaled = r_inv @ r_inv.T  # (X'X)^-1 in pivoted order
    cov = np.empty((n_terms, n_terms))
    cov[np.ix_(pivot, pivot)] = unscaled
    std_errors = np.sqrt(np.maximum(sigma2 * np.diag(cov), 0.0))

    centered = y - y.mean()
    tss = float(centered @ centered)
    if tss == 0.0:
        warnings.warn("degenerate outcome: zero total variation", stacklevel=2)
        r_squared = 0.0
    else:
        r_squared = min(max(1.0 - rss / tss, 0.0), 1.0)

    p_values = np.empty(n_terms)
    for j in range(n_terms):
        if std_errors[j] == 0.0:
            p_values[j] = 1.0 if beta[j] == 0.0 else 0.0
        else:
            p_values[j] = 2.0 * t_cdf(-abs(beta[j]) / std_errors[j], df)

    return RegressionFit(
        term_names=names,
        coefficients=beta,
        std_errors=std_errors,
        p_values=p_values,
        r_squared=r_squared,
        df_residual=df,
    )


def t_cdf(x: float, df: int) -> float:
    """Student t cumulative probability with ``df`` degrees of freedom.

    Evaluated by ``scipy.special.stdtr``; accurate to well under 1e-10
    absolutely. ``x`` must be finite.
    """
    if df < 1:
        raise ParameterError(f"df must be >= 1, got {df}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"t_cdf requires finite x, got {x}")
    import scipy.special  # only `regress` needs it; keeps other commands' start-up short

    return float(scipy.special.stdtr(df, x))


def summary_text(fit: RegressionFit) -> str:
    """Fixed-column human-readable coefficient table (3-decimal display)."""
    width = max(len(name) for name in fit.term_names)
    width = max(width, len("Term"))
    lines = [
        f"{'Term':<{width}}  {'Coefficient':>11}  {'Std Error':>9}  {'p-value':>7}"
    ]
    for j, name in enumerate(fit.term_names):
        p = fit.p_values[j]
        p_text = "<0.001" if p < 0.001 else f"{p:.3f}"
        lines.append(
            f"{name:<{width}}  {fit.coefficients[j]:>11.3f}  "
            f"{fit.std_errors[j]:>9.3f}  {p_text:>7}"
        )
    lines.append("")
    lines.append(f"R-squared: {fit.r_squared:.3f}")
    lines.append(f"Residual degrees of freedom: {fit.df_residual}")
    return "\n".join(lines) + "\n"


def _term_records(fit: RegressionFit) -> list[dict]:
    return [
        {
            "term": name,
            "coefficient": float(fit.coefficients[j]),
            "std_error": float(fit.std_errors[j]),
            "p_value": float(fit.p_values[j]),
        }
        for j, name in enumerate(fit.term_names)
    ]


def summary_json(fit: RegressionFit) -> str:
    doc = {
        "terms": _term_records(fit),
        "r_squared": fit.r_squared,
        "df_residual": fit.df_residual,
    }
    return files.to_json(doc)


def summary_csv(fit: RegressionFit, destination: files.Target) -> None:
    """Coefficient table as CSV with full-precision values."""
    files.write_records(destination, _term_records(fit))
