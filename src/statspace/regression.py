"""Ordinary least squares with standard errors, p-values, and R-squared.

Every fit has an intercept. Coefficients come from a column-pivoted
Householder QR factorization rather than normal equations, both for stability
and so rank deficiency can be detected (and the offending columns named) from
the R pivots. Two-sided p-values use the exact small-sample Student t
distribution, computed as the tail itself so that tiny p-values keep their
precision instead of rounding to 0. Both need numpy and the standard library
only. ``summary_text``, ``summary_csv`` and ``summary_json`` each write a
fit's coefficient table to the target they are given.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from . import files
from .errors import (
    DomainError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    RankDeficiencyError,
    SchemaError,
    ValidationError,
)

# Relative pivot threshold below which a design column counts as dependent.
RANK_TOL = 1e-10

INTERCEPT_NAME = "intercept"


class RegressionFit(NamedTuple):
    """Coefficient table plus fit summary for one OLS regression."""

    term_names: list[str]
    coefficients: np.ndarray
    std_errors: np.ndarray
    p_values: np.ndarray
    r_squared: float
    df_residual: int


def fit_ols(
    design: np.ndarray,
    outcome: Sequence[float],
    term_names: Sequence[str] | None = None,
) -> RegressionFit:
    """Least-squares fit of ``outcome`` on an intercept and the columns of
    the n x q matrix ``design``.

    ``term_names`` labels the predictor columns (defaults x1..xq); the
    intercept term always comes first. A constant outcome yields R-squared 0
    with a degenerate-outcome warning rather than an error.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(outcome, dtype=float)
    if X.ndim != 2:
        raise ParameterError("design must be a 2-D matrix")
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

    R, qty, pivot = _pivoted_qr(X, y)
    diag = np.abs(np.diag(R))
    dependent = np.flatnonzero(diag < RANK_TOL * diag[0])
    if dependent.size:
        bad = sorted(names[pivot[j]] for j in dependent)
        raise RankDeficiencyError(f"design columns are linearly dependent: {bad}")

    beta = np.empty(n_terms)
    beta[pivot] = _solve_upper(R, qty)

    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    df = n - n_terms
    sigma2 = rss / df

    r_inv = _solve_upper(R, np.eye(n_terms))
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


def _pivoted_qr(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR of ``X`` with greedy column pivoting, applied to ``y`` too.

    Returns ``R``, the first ``q`` entries of ``Q.T @ y``, and the pivots, so
    that ``X[:, pivot] == Q @ R``. Each step brings forward the column whose
    part below the rows already reduced has the largest norm, the pivot rule
    of LAPACK's ``dgeqp3`` (which updates those norms; for a few columns they
    are cheaper to recompute).
    """
    A = np.column_stack([X, y])
    q = X.shape[1]
    pivot = np.arange(q)
    for k in range(q):
        norms = np.einsum("ij,ij->j", A[k:, k:q], A[k:, k:q])
        j = k + int(np.argmax(norms))
        A[:, [k, j]] = A[:, [j, k]]
        pivot[[k, j]] = pivot[[j, k]]
        alpha = math.sqrt(norms[j - k])
        if alpha == 0.0:
            break  # every column left is zero below row k
        v = A[k:, k].copy()
        v[0] += math.copysign(alpha, v[0])
        v /= np.linalg.norm(v)
        A[k:, k:] -= 2.0 * np.outer(v, v @ A[k:, k:])
    return np.triu(A[:q, :q]), A[:q, q], pivot


def _solve_upper(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``R @ x == b`` for upper-triangular ``R``, by back-substitution."""
    x = np.array(b, dtype=float)
    for i in reversed(range(len(R))):
        x[i] = (x[i] - R[i, i + 1 :] @ x[i + 1 :]) / R[i, i]
    return x


# Terms allowed to either expansion in t_cdf. At most ~190 are needed, at any df.
MAX_TERMS = 500

# sqrt(h) * Gamma(h + 1/2) / Gamma(h + 1) as a series in 1/h; from h = 50 on,
# the first term left out is below 1e-17.
_GAMMA_RATIO_SERIES = (
    1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144, 869 / 4194304,
    39325 / 33554432,
)


def t_cdf(x: float, df: int) -> float:
    """Student t cumulative probability with ``df`` degrees of freedom.

    With tan(theta) = |x| / sqrt(df), the two-sided tail P(|T| > |x|) is the
    regularized incomplete beta I(cos^2 theta; df/2, 1/2). For |x| >= 1 it is
    computed as itself: a leading factor times a continued fraction in
    df / x^2 whose partial numerators are all positive, so a tail of 1e-300
    keeps its relative precision. For |x| < 1 it is one minus
    I(sin^2 theta; 1/2, df/2), a power series in sin^2 theta of positive
    terms; that tail is above 0.3, so the subtraction loses nothing. Neither
    expansion needs more terms as df grows, unlike the finite series of
    A&S 26.7.3/26.7.4 (df/2 terms, and a tail sum that converges like
    cos^(2k) theta). cos^df theta comes from ``log1p`` or ``hypot``, never from
    x*x, which overflows, or from a rounded cosine raised to the power df.
    Agrees with ``scipy.special.stdtr`` to 1e-12 relative. ``x`` must be
    finite; ``x = 0`` gives exactly 0.5.
    """
    if df < 1:
        raise ParameterError(f"df must be >= 1, got {df}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"t_cdf requires finite x, got {x}")
    q = abs(x) / math.sqrt(df)  # tan(theta)
    s = q / math.hypot(1.0, q)  # sin(theta)
    log_sec = 0.5 * math.log1p(q * q) if q <= 1.0 else math.log(math.hypot(1.0, q))
    lead = _gamma_ratio(df) * math.exp(-df * log_sec)  # the ratio times cos^df(theta)
    if abs(x) < 1.0:
        tail = 1.0 - df * lead * s * _sin_series(s * s, df)
    else:
        tail = lead / s * _cot_fraction(1.0 / (q * q), df)
    return tail / 2 if x < 0 else 1.0 - tail / 2


def _gamma_ratio(df: float) -> float:
    """Gamma((df + 1) / 2) / (sqrt(pi) * Gamma(df / 2 + 1))."""
    h, scale = df / 2, 1.0
    while h < 50:  # Gamma(z + 1) = z Gamma(z) carries h up to where the series holds
        scale *= (h + 1) / (h + 0.5)
        h += 1
    series = 0.0
    for coefficient in reversed(_GAMMA_RATIO_SERIES):
        series = series / h + coefficient
    return scale * series / math.sqrt(math.pi * h)


def _sin_series(y: float, df: float) -> float:
    """2F1(1, (df + 1)/2; 3/2; y) for y = sin^2 theta: sum of u_j, u_0 = 1."""
    total = term = 1.0
    for j in range(MAX_TERMS):
        term *= y * (df + 1 + 2 * j) / (3 + 2 * j)
        if total + term == total:
            return total
        total += term
    raise NumericalError(f"t_cdf series did not converge in {MAX_TERMS} terms")


def _cot_fraction(z: float, df: float) -> float:
    """Continued fraction 1 / (1 + d1 / (1 + d2 / ...)) in z = cot^2 theta.

    The partial numerators d are all positive (Cephes ``incbd`` with
    a = df/2, b = 1/2); evaluated by the modified Lentz method.
    """
    a = df / 2
    f, c, d = 1.0, 1.0, 0.0
    for n in range(MAX_TERMS):
        for numerator in (
            z * (a + n) * (n + 0.5) / ((a + 2 * n) * (a + 2 * n + 1)),
            z * (n + 1) * (a + n + 0.5) / ((a + 2 * n + 1) * (a + 2 * n + 2)),
        ):
            d = 1.0 / (1.0 + numerator * d)
            c = 1.0 + numerator / c
            f *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            return 1.0 / f
    raise NumericalError(f"t_cdf continued fraction did not converge in {MAX_TERMS} terms")


def summary_text(fit: RegressionFit, destination: files.Target) -> None:
    """Write the fixed-column human-readable coefficient table (3-decimal display)."""
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
    files.write_text(destination, "\n".join(lines) + "\n")


def _term_columns(fit: RegressionFit) -> dict[str, list]:
    return {
        "term": fit.term_names,
        "coefficient": fit.coefficients.tolist(),
        "std_error": fit.std_errors.tolist(),
        "p_value": fit.p_values.tolist(),
    }


def summary_json(fit: RegressionFit, destination: files.Target) -> None:
    """Write the coefficient table's rows, R-squared and the residual df."""
    columns = _term_columns(fit)
    doc = {
        "terms": [dict(zip(columns, row)) for row in zip(*columns.values())],
        "r_squared": fit.r_squared,
        "df_residual": fit.df_residual,
    }
    files.write_text(destination, files.to_json(doc))


def summary_csv(fit: RegressionFit, destination: files.Target) -> None:
    """Write the coefficient table as CSV with full-precision values."""
    files.write_table(destination, _term_columns(fit), "csv")
