"""Principal component core: standardization, two eigen-solvers, projection.

``fit_pca`` supports two methods that must agree to tight tolerance:

* ``"eig"`` (production): symmetric eigendecomposition of the p-by-p sample
  covariance of the standardized data.
* ``"power"`` (cross-check): iterative variance maximization, extracting one
  unit loading vector at a time by power iteration and removing each found
  component from the data matrix before searching for the next.

Both orient every loading vector so its largest-magnitude coefficient is
positive, making fits reproducible bit for bit. The sample (n-1) variance
convention is used throughout, so standardized columns have variance exactly 1
and total variance equals the column count.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import files
from .errors import (
    ConvergenceError,
    EntityLookupError,
    ParameterError,
    SchemaError,
    ValidationError,
    ZeroVarianceError,
)
from .ingest import StatTable

MODEL_FORMAT_VERSION = 1

# Power iteration stops when successive vectors differ by less than this in
# Euclidean norm, or fails after this many iterations. Both are read when the
# solver runs.
POWER_TOL = 1e-12
POWER_MAX_ITER = 10_000


@dataclass
class StandardizationParams:
    """Per-column centering and scaling learned from the fitting sample."""

    stat_names: list[str]
    means: np.ndarray
    std_devs: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.std_devs = np.asarray(self.std_devs, dtype=float)
        p = len(self.stat_names)
        if self.means.shape != (p,) or self.std_devs.shape != (p,):
            raise ValidationError("means/std_devs lengths do not match stat_names")
        if not (self.std_devs > 0).all():
            bad = [self.stat_names[j] for j in np.flatnonzero(self.std_devs <= 0)]
            raise ZeroVarianceError(f"non-positive std dev for columns: {bad}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.means) / self.std_devs


@dataclass
class PcaModel:
    """Fitted components: loadings are rows, ordered by variance captured.

    Immutable once constructed; arrays are marked read-only so a model can be
    shared freely across threads.
    """

    standardization: StandardizationParams
    loadings: np.ndarray  # k x p, unit-norm rows
    component_variances: np.ndarray  # length k, non-increasing
    total_variance: float
    n_samples: int

    def __post_init__(self):
        self.loadings = np.asarray(self.loadings, dtype=float)
        self.component_variances = np.asarray(self.component_variances, dtype=float)
        k, p = self.loadings.shape
        if p != len(self.standardization.stat_names):
            raise ValidationError("loading length does not match stat_names")
        if self.component_variances.shape != (k,):
            raise ValidationError("component_variances length does not match loadings")
        if self.total_variance <= 0:
            raise ValidationError("total_variance must be positive")
        if self.n_samples < 2:
            raise ValidationError("n_samples must be >= 2")

        norms = np.linalg.norm(self.loadings, axis=1)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise ValidationError("loading vectors must have unit norm")
        gram = self.loadings @ self.loadings.T
        if np.abs(gram - np.eye(k)).max() > 1e-8:
            raise ValidationError("loading vectors must be pairwise orthogonal")
        if (self.component_variances < 0).any():
            raise ValidationError("component variances must be nonnegative")
        drops = np.diff(self.component_variances)
        slack = 1e-10 * max(1.0, float(self.component_variances[0]))
        if drops.size and drops.max() > slack:  # rounding slack only
            raise ValidationError("component variances must be non-increasing")

        self.loadings.setflags(write=False)
        self.component_variances.setflags(write=False)

    @property
    def k(self) -> int:
        return self.loadings.shape[0]


@dataclass
class ScoreSet:
    """Per-entity component scores plus the minutes needed for aggregation."""

    entity_ids: list[str]
    minutes: list[float]
    scores: np.ndarray  # n x k
    row_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        n = len(self.entity_ids)
        if len(self.minutes) != n or self.scores.shape[0] != n:
            raise ValidationError("entity_ids, minutes, scores lengths differ")
        # entity id -> its row; built back to front so a repeated id maps to
        # its first row, as a scan from the front would find it
        self.row_index = dict(zip(reversed(self.entity_ids), range(n - 1, -1, -1)))

    @property
    def k(self) -> int:
        return self.scores.shape[1]

    def row(self, entity_id: str) -> np.ndarray:
        try:
            return self.scores[self.row_index[entity_id]]
        except KeyError:
            raise EntityLookupError(f"unknown entity id {entity_id!r}") from None


def standardize(
    table: StatTable, *, drop_constant: bool = False
) -> tuple[StandardizationParams, np.ndarray]:
    """Center each column to mean 0 and scale to sample variance 1.

    Constant columns cannot be scaled: they raise :class:`ZeroVarianceError`
    unless ``drop_constant`` is set, in which case they are removed and
    reported via :mod:`warnings` (compare ``params.stat_names`` against
    ``table.stat_names`` to see what was kept).
    """
    if table.n_entities < 2:
        raise ValidationError("standardization needs at least 2 rows")
    values = table.values
    stds = values.std(axis=0, ddof=1)
    constant = np.flatnonzero(stds == 0.0)
    names = table.stat_names
    if constant.size:
        bad = [names[j] for j in constant]
        if not drop_constant:
            raise ZeroVarianceError(f"zero-variance columns: {bad}")
        warnings.warn(f"dropping zero-variance columns: {bad}", stacklevel=2)
        keep = np.flatnonzero(stds != 0.0)
        if keep.size == 0:
            raise ZeroVarianceError("all columns have zero variance")
        values = values[:, keep]
        stds = stds[keep]
        names = [names[j] for j in keep]

    params = StandardizationParams(
        stat_names=list(names),
        means=values.mean(axis=0),
        std_devs=stds,
    )
    return params, params.apply(values)


def _check_centered(standardized: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(standardized).max()))
    worst = float(np.abs(standardized.mean(axis=0)).max())
    if worst > 1e-8 * scale:
        raise ParameterError(
            f"input columns must have mean 0 (worst column mean {worst:.3e})"
        )


def _orient_sign(vector: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude coefficient is positive."""
    if vector[np.argmax(np.abs(vector))] < 0:
        return -vector
    return vector


def fit_pca(
    standardized: np.ndarray,
    k: int,
    standardization: StandardizationParams,
    *,
    method: str = "eig",
) -> PcaModel:
    """Fit the top-k components of mean-zero data.

    ``method="eig"`` diagonalizes the sample covariance directly;
    ``method="power"`` reproduces the sequential variance-maximization
    procedure (power iteration plus deflation of the data matrix) and exists
    as an independent check on the production path.
    """
    Z = np.asarray(standardized, dtype=float)
    if Z.ndim != 2:
        raise ParameterError("standardized input must be a 2-D matrix")
    n, p = Z.shape
    if p != len(standardization.stat_names):
        raise SchemaError(
            f"matrix has {p} columns but standardization lists "
            f"{len(standardization.stat_names)} names"
        )
    if not 1 <= k <= min(n - 1, p):
        raise ParameterError(f"k must be in [1, {min(n - 1, p)}], got {k}")
    _check_centered(Z)

    cov = (Z.T @ Z) / (n - 1)
    total_variance = float(np.trace(cov))

    if method == "eig":
        eigvals, eigvecs = np.linalg.eigh(cov)
        # stable sort: exactly tied eigenvalues keep first-encountered order
        order = np.argsort(-eigvals, kind="stable")
        variances = np.maximum(eigvals[order[:k]], 0.0)
        loadings = np.array([_orient_sign(eigvecs[:, j]) for j in order[:k]])
    elif method == "power":
        loadings, variances = _power_deflation(Z, k)
    else:
        raise ParameterError(f"unknown method {method!r}; use 'eig' or 'power'")

    return PcaModel(
        standardization=standardization,
        loadings=loadings,
        component_variances=variances,
        total_variance=total_variance,
        n_samples=n,
    )


def _power_deflation(Z: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract k loading vectors by repeated variance maximization.

    The direction maximizing the variance of the projected data is the
    dominant eigenvector of the deflated cross-product matrix; after each
    component is found the data matrix is rebuilt with every found component
    subtracted before searching for the next one.
    """
    n, p = Z.shape
    rng = np.random.default_rng(0)  # fixed seed: fits must be reproducible
    found: list[np.ndarray] = []
    variances: list[float] = []

    for component in range(k):
        if found:
            W = np.array(found)  # deflate: remove span of found components
            deflated = Z - (Z @ W.T) @ W
        else:
            deflated = Z
        A = deflated.T @ deflated

        # A has negligible residual variance once the data rank is exhausted;
        # any direction orthogonal to the found components is then optimal.
        if np.trace(A) <= 1e-12 * max(1.0, float(np.trace(Z.T @ Z))):
            w = _orthogonal_completion(found, p)
        else:
            w = _dominant_eigenvector(A, found, rng, component)

        w = _orient_sign(w)
        found.append(w)
        variances.append(float(np.var(Z @ w, ddof=1)))

    return np.array(found), np.array(variances)


def _dominant_eigenvector(
    A: np.ndarray,
    previous: list[np.ndarray],
    rng: np.random.Generator,
    component: int,
) -> np.ndarray:
    v = rng.normal(size=A.shape[0])
    v = _project_out(v, previous)
    v /= np.linalg.norm(v)
    diff = np.inf
    for _ in range(POWER_MAX_ITER):
        u = A @ v
        u = _project_out(u, previous)  # keep rounding drift out of found span
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return _orthogonal_completion(previous, A.shape[0])
        u /= norm
        diff = float(np.linalg.norm(u - v))
        v = u
        if diff < POWER_TOL:
            return v
    raise ConvergenceError(component, diff)


def _project_out(v: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for w in basis:
        v = v - (v @ w) * w
    return v


def _orthogonal_completion(previous: list[np.ndarray], p: int) -> np.ndarray:
    """Deterministic unit vector orthogonal to all found loadings."""
    best, best_residual = None, -1.0
    for j in range(p):
        candidate = _project_out(np.eye(p)[j], previous)
        residual = float(np.linalg.norm(candidate))
        if residual > best_residual + 1e-12:
            best, best_residual = candidate, residual
    if best is None or best_residual <= 1e-8:
        raise ParameterError("cannot extend orthonormal basis")
    return best / best_residual


def component_spectrum(standardized: np.ndarray) -> np.ndarray:
    """All p component variances, descending (for scree reporting)."""
    Z = np.asarray(standardized, dtype=float)
    _check_centered(Z)
    cov = (Z.T @ Z) / (Z.shape[0] - 1)
    return np.maximum(np.linalg.eigvalsh(cov)[::-1], 0.0)


def explained_variance_ratio(model: PcaModel) -> np.ndarray:
    """Fraction of total variance captured by each fitted component."""
    return model.component_variances / model.total_variance


def transform(model: PcaModel, table: StatTable) -> ScoreSet:
    """Project a table onto the fitted components.

    The model's statistic columns are taken from the table by name, so column
    order does not matter and other columns (say, ones the fit dropped as
    constant) are ignored. A missing column raises :class:`SchemaError`.
    """
    expected = model.standardization.stat_names
    values = table.values
    if table.stat_names != expected:
        position = {name: j for j, name in enumerate(table.stat_names)}
        missing = [name for name in expected if name not in position]
        if missing:
            raise SchemaError(f"table lacks model columns: {missing}")
        values = values[:, [position[name] for name in expected]]
    Z = model.standardization.apply(values)
    return ScoreSet(
        entity_ids=list(table.entity_ids),
        minutes=list(table.minutes),
        scores=Z @ model.loadings.T,
    )


def top_loadings(
    model: PcaModel, component: int, count: int, threshold: float = 0.0
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Strongest positive and negative coefficients of one component.

    Returns two lists of (stat_name, coefficient): the ``count`` most positive
    and the ``count`` most negative, keeping only entries with
    ``|coefficient| >= threshold``. Zero coefficients count as positive. Ties
    preserve original column order.
    """
    if not 0 <= component < model.k:
        raise ParameterError(f"component must be in [0, {model.k - 1}], got {component}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    pairs = list(zip(model.standardization.stat_names, model.loadings[component].tolist()))
    positives = sorted(
        (item for item in pairs if item[1] >= 0 and item[1] >= threshold),
        key=lambda item: -item[1],
    )
    negatives = sorted(
        (item for item in pairs if item[1] < 0 and -item[1] >= threshold),
        key=lambda item: item[1],
    )
    return positives[:count], negatives[:count]


def model_to_json(model: PcaModel) -> str:
    """Serialize to JSON with full-precision (round-trippable) numbers."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "n_samples": model.n_samples,
        "total_variance": model.total_variance,
        "standardization": {
            "stat_names": model.standardization.stat_names,
            "means": model.standardization.means.tolist(),
            "std_devs": model.standardization.std_devs.tolist(),
        },
        "component_variances": model.component_variances.tolist(),
        "loadings": model.loadings.tolist(),
    }
    return files.to_json(doc)


def model_from_json(text: str) -> PcaModel:
    """Parse a model document written by :func:`model_to_json`.

    A malformed document, or a missing or non-numeric field, raises
    :class:`SchemaError`; a non-finite number raises :class:`ValidationError`.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"model is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("model must be a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unsupported model format version: {version!r}")
    std = _model_field(doc, "standardization", dict)
    stat_names = _model_field(std, "stat_names", list)
    if not all(isinstance(name, str) for name in stat_names):
        raise SchemaError("model field 'stat_names' must list strings")
    n_samples = _model_field(doc, "n_samples", int)
    return PcaModel(
        standardization=StandardizationParams(
            stat_names=stat_names,
            means=_model_numbers(std, "means", 1),
            std_devs=_model_numbers(std, "std_devs", 1),
        ),
        loadings=_model_numbers(doc, "loadings", 2),
        component_variances=_model_numbers(doc, "component_variances", 1),
        total_variance=float(_model_numbers(doc, "total_variance", 0)),
        n_samples=n_samples,
    )


def _model_field(doc: dict, key: str, kind: type | None = None):
    try:
        value = doc[key]
    except KeyError:
        raise SchemaError(f"model is missing field {key!r}") from None
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(
            f"model field {key!r} is a {type(value).__name__}, expected a {kind.__name__}"
        )
    return value


def _model_numbers(doc: dict, key: str, ndim: int) -> np.ndarray:
    """A numeric model field as a finite float array of the given rank."""
    value = _model_field(doc, key)
    try:
        values = np.asarray(value)
    except ValueError:  # ragged nesting
        values = None
    if values is None or values.dtype.kind not in "iuf" or values.ndim != ndim:
        shape = ("a number", "a list of numbers", "a list of number lists")[ndim]
        raise SchemaError(f"model field {key!r} must be {shape}")
    values = values.astype(float)
    if not np.isfinite(values).all():
        raise ValidationError(f"model field {key!r} holds a non-finite value")
    return values


def save_model(model: PcaModel, destination: files.Target) -> None:
    files.write_text(destination, model_to_json(model))


def load_model(source: files.Target) -> PcaModel:
    return model_from_json(files.read_text(source))
