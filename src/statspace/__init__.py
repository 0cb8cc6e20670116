"""Reduce per-player statistics to principal components and compare profiles.

The pipeline: ingest a players CSV into a clean stat table, standardize and
fit principal components, project players (and minutes-weighted teams) into
the component space, rank profile similarity by squared score distance, and
regress team outcomes on component scores.
"""

from .errors import (
    AggregationError,
    ConvergenceError,
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
from .ingest import (
    DEFAULT_SCHEMA,
    FilterPolicy,
    RawRecord,
    RawTable,
    StatTable,
    apply_filter,
    build_table,
    parse_csv,
)
from .pca import (
    PcaModel,
    ScoreSet,
    StandardizationParams,
    component_spectrum,
    explained_variance_ratio,
    fit_pca,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    standardize,
    top_loadings,
    transform,
)
from .regression import RegressionFit, fit_ols, t_cdf
from .scoring import (
    TeamScoreSet,
    load_membership,
    load_win_pct,
    regression_weighted_score,
    team_scores,
    with_win_pct,
)
from .similarity import SdiRanking, rank_similar, sdi

__version__ = "0.1.0"
