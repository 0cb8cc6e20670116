"""Reduce per-player statistics to principal components and compare profiles.

The pipeline: ingest a players CSV into a clean stat table, standardize and
fit principal components, project players (and minutes-weighted teams) into
the component space, rank profile similarity by squared score distance, and
regress team outcomes on component scores.
"""

from importlib import import_module as _import_module

from .errors import (
    AggregationError,
    DataError,
    DomainError,
    EntityLookupError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    ParseError,
    RankDeficiencyError,
    SchemaError,
    StatspaceError,
    UsageError,
    ValidationError,
    ZeroVarianceError,
)
# The rest of the API is imported on first use (PEP 562), so that importing
# the package imports no numpy: the CLI sets numpy's BLAS threads first.
_EXPORTS = {
    "ingest": ("RawRecord", "RawTable", "apply_filter", "build_table", "parse_csv"),
    "pca": (
        "PcaModel", "StandardizationParams", "component_spectrum", "explained_variance_ratio",
        "fit_pca", "load_model", "save_model", "standardize", "top_loadings", "transform",
    ),
    "regression": ("RegressionFit", "fit_ols", "t_cdf"),
    "scoring": (
        "load_membership", "load_win_pct", "regression_weighted_score", "team_scores",
        "team_win_pct",
    ),
    "similarity": ("SdiRanking", "rank_similar", "sdi"),
    "table": ("DEFAULT_SCHEMA", "FilterPolicy", "StatTable"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [name for name in globals() if not name.startswith("_")] + list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"
