"""Principal component core: standardization, the fit, projection.

``fit_pca`` fits by one symmetric eigendecomposition of the p-by-p sample
covariance of the standardized data. The test suite checks it against a
deflation solver of its own: iterative variance maximization, extracting one
unit loading vector at a time by power iteration and removing each found
component from the data matrix before searching for the next.

Every loading vector is oriented so its largest-magnitude coefficient is
positive, making fits reproducible bit for bit. The sample (n-1) variance
convention is used throughout, so standardized columns have variance exactly 1
and total variance equals the column count.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from . import files
from .errors import (
    JSON_TYPES,
    NumericalError,
    ParameterError,
    SchemaError,
    ValidationError,
    ZeroVarianceError,
    listed,
)
from .table import StatTable, _duplicates

MODEL_FORMAT_VERSION = 1


class StandardizationParams:
    """Per-column centering and scaling learned from the fitting sample."""

    __slots__ = ("stat_names", "means", "std_devs")

    def __init__(self, stat_names: list[str], means: np.ndarray, std_devs: np.ndarray):
        self.stat_names = stat_names
        self.means = means = np.asarray(means, dtype=float)
        self.std_devs = std_devs = np.asarray(std_devs, dtype=float)
        p = len(stat_names)
        if len(set(stat_names)) != p:
            repeated = sorted(_duplicates(stat_names))
            raise SchemaError(f"stat_names lists a column more than once: {listed(repeated)}")
        if means.shape != (p,) or std_devs.shape != (p,):
            raise ValidationError("means/std_devs lengths do not match stat_names")
        if not (std_devs > 0).all():
            bad = [stat_names[j] for j in np.flatnonzero(std_devs <= 0)]
            raise ZeroVarianceError(f"non-positive std dev for columns: {listed(bad)}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``(values - means) / std_devs`` in a new array, divided in place,
        so that no second n x p temporary is made. A value that overflows
        raises :class:`NumericalError`."""
        with np.errstate(all="ignore"):  # an overflow is caught as a non-finite value
            standardized = np.asarray(values, dtype=float) - self.means
            standardized /= self.std_devs
        return _finite(standardized, "standardization", self.stat_names)


class PcaModel:
    """Fitted components: loadings are rows, ordered by variance captured.

    Immutable once constructed; arrays are marked read-only so a model can be
    shared freely across threads.
    """

    __slots__ = (
        "standardization", "loadings", "component_variances", "total_variance", "n_samples"
    )

    def __init__(
        self,
        standardization: StandardizationParams,
        loadings: np.ndarray,  # k x p, unit-norm rows
        component_variances: np.ndarray,  # length k, non-increasing
        total_variance: float,
        n_samples: int,
    ):
        self.standardization = standardization
        self.loadings = loadings = np.asarray(loadings, dtype=float)
        self.component_variances = variances = np.asarray(component_variances, dtype=float)
        self.total_variance = total_variance
        self.n_samples = n_samples
        k, p = loadings.shape
        if p != len(standardization.stat_names):
            raise ValidationError("loading length does not match stat_names")
        if variances.shape != (k,):
            raise ValidationError("component_variances length does not match loadings")
        if total_variance <= 0:
            raise ValidationError("total_variance must be positive")
        if n_samples < 2:
            raise ValidationError("n_samples must be >= 2")

        # no entry of a unit-norm row exceeds 1; a larger one could overflow the norm
        if np.abs(loadings).max(initial=0.0) > 1.0 + 1e-10 or (
            np.abs(np.linalg.norm(loadings, axis=1) - 1.0).max() > 1e-10
        ):
            raise ValidationError("loading vectors must have unit norm")
        gram = loadings @ loadings.T
        if np.abs(gram - np.eye(k)).max() > 1e-8:
            raise ValidationError("loading vectors must be pairwise orthogonal")
        if (variances < 0).any():
            raise ValidationError("component variances must be nonnegative")
        drops = np.diff(variances)
        slack = 1e-10 * max(1.0, float(variances[0]))
        if drops.size and drops.max() > slack:  # rounding slack only
            raise ValidationError("component variances must be non-increasing")

        loadings.setflags(write=False)
        variances.setflags(write=False)

    @property
    def k(self) -> int:
        return self.loadings.shape[0]


def standardize(table: StatTable) -> tuple[StandardizationParams, np.ndarray]:
    """Center each column to mean 0 and scale to sample variance 1.

    Constant columns cannot be scaled, so they are removed and reported via
    :mod:`warnings` (compare ``params.stat_names`` against
    ``table.stat_names`` to see what was kept); a table with no column left
    raises :class:`ZeroVarianceError`.
    """
    if table.n_entities < 2:
        raise ValidationError("standardization needs at least 2 rows")
    values = table.values
    names = table.stat_names
    with np.errstate(all="ignore"):  # an overflow is caught as a non-finite value
        stds = _finite(values.std(axis=0, ddof=1), "standard deviation", names)
    constant = np.flatnonzero(stds == 0.0)
    if constant.size:
        keep = np.flatnonzero(stds != 0.0)
        if keep.size == 0:
            raise ZeroVarianceError("all columns have zero variance")
        bad = listed([names[j] for j in constant])
        warnings.warn(f"dropping zero-variance columns: {bad}", stacklevel=2)
        values = values[:, keep]
        stds = stds[keep]
        names = [names[j] for j in keep]

    params = StandardizationParams(
        stat_names=list(names),
        means=values.mean(axis=0),
        std_devs=stds,
    )
    return params, params.apply(values)


def _covariance(Z: np.ndarray) -> np.ndarray:
    """The p x p sample covariance ``(Z.T @ Z) / (n - 1)`` of the n x p
    data ``Z``, whose columns must have mean 0, else
    :class:`ParameterError`."""
    # the largest magnitude, without an n x p array of magnitudes
    scale = max(1.0, float(max(Z.max(), -Z.min())))
    worst = float(np.abs(Z.mean(axis=0)).max())
    if worst > 1e-8 * scale:
        raise ParameterError(
            f"input columns must have mean 0 (worst column mean {worst:.3e})"
        )
    return (Z.T @ Z) / (Z.shape[0] - 1)


def _orient_sign(vector: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude coefficient is positive."""
    if vector[np.argmax(np.abs(vector))] < 0:
        return -vector
    return vector


def fit_pca(standardized: np.ndarray, k: int, standardization: StandardizationParams) -> PcaModel:
    """Fit the top-k components of mean-zero data by diagonalizing its
    sample covariance. The test suite checks the result against the
    sequential variance-maximization procedure (power iteration plus
    deflation of the data matrix)."""
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
    cov = _covariance(Z)
    total_variance = float(np.trace(cov))

    eigvals, eigvecs = np.linalg.eigh(cov)
    # stable sort: exactly tied eigenvalues keep first-encountered order
    order = np.argsort(-eigvals, kind="stable")
    variances = np.maximum(eigvals[order[:k]], 0.0)
    loadings = np.array([_orient_sign(eigvecs[:, j]) for j in order[:k]])

    return PcaModel(
        standardization=standardization,
        loadings=loadings,
        component_variances=variances,
        total_variance=total_variance,
        n_samples=n,
    )


def component_spectrum(standardized: np.ndarray) -> np.ndarray:
    """All p component variances, descending (for scree reporting)."""
    cov = _covariance(np.asarray(standardized, dtype=float))
    return np.maximum(np.linalg.eigvalsh(cov)[::-1], 0.0)


def explained_variance_ratio(model: PcaModel) -> np.ndarray:
    """Fraction of total variance captured by each fitted component."""
    return model.component_variances / model.total_variance


def transform(model: PcaModel, table: StatTable) -> StatTable:
    """Project a table onto the fitted components.

    The model's statistic columns are taken from the table by name, so column
    order does not matter and other columns (say, ones the fit dropped as
    constant) are ignored. A missing column raises :class:`SchemaError`.
    The scores keep the table's ids, names and minutes; their columns are
    named ``PC1`` to ``PCk``, the names every later stage reads.
    """
    expected = model.standardization.stat_names
    values = table.values
    if table.stat_names != expected:
        position = {name: j for j, name in enumerate(table.stat_names)}
        missing = [name for name in expected if name not in position]
        if missing:
            raise SchemaError(f"table lacks model columns: {listed(missing)}")
        values = values[:, [position[name] for name in expected]]
    with np.errstate(all="ignore"):  # an overflow is caught as a non-finite value
        scores = model.standardization.apply(values) @ model.loadings.T
    components = [f"PC{i + 1}" for i in range(model.k)]
    return StatTable(
        entity_ids=table.entity_ids,
        entity_names=table.entity_names,
        minutes=table.minutes,
        stat_names=components,
        values=_finite(scores, "projection", components),
    )


def _finite(values: np.ndarray, stage: str, columns: list[str]) -> np.ndarray:
    """``values`` (a row, or rows, of ``columns``) if every entry is finite;
    else a :class:`NumericalError` that names ``stage`` and the columns."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = [columns[j] for j in np.flatnonzero(~finite.reshape(-1, len(columns)).all(0))]
        raise NumericalError(f"{stage} overflows to a non-finite value in {listed(bad)}")
    return values


def top_loadings(
    model: PcaModel, component: int, count: int
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """Strongest positive and negative coefficients of one component.

    Returns two lists of (stat_name, coefficient): the ``count`` most positive
    and the ``count`` most negative. Zero coefficients count as positive. Ties
    preserve original column order.
    """
    if not 0 <= component < model.k:
        raise ParameterError(f"component must be in [0, {model.k - 1}], got {component}")
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    pairs = list(zip(model.standardization.stat_names, model.loadings[component].tolist()))
    positives = sorted((item for item in pairs if item[1] >= 0), key=lambda item: -item[1])
    negatives = sorted((item for item in pairs if item[1] < 0), key=lambda item: item[1])
    return positives[:count], negatives[:count]


def save_model(model: PcaModel, destination: files.Target) -> bytes:
    """Write ``model`` to ``destination`` as a JSON object, and return the
    bytes written: its text as UTF-8.

    The object holds ``format_version`` (1), ``n_samples``,
    ``total_variance``, ``standardization`` (``stat_names``, ``means`` and
    ``std_devs``), ``component_variances`` and ``loadings`` (a list per
    component), in :func:`files.to_json`'s form: every number round-trips
    bit for bit.
    """
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
    text = files.to_json(doc)
    files.write_text(destination, text)
    return text.encode()


def load_model(source: files.Target | bytearray) -> PcaModel:
    """The model :func:`save_model` wrote to ``source``: a path, an open
    text stream, or a bytearray holding a model file's bytes as already read.

    Bytes that are not UTF-8 raise :class:`ParseError`. A malformed
    document, a missing or non-numeric field, a ``format_version`` other
    than the integer 1, or an ``n_samples`` outside 2 to 2**63 - 1 raises
    :class:`SchemaError`; a non-finite number raises
    :class:`ValidationError`.
    """
    try:
        doc = json.loads(files.read_text(source))
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an int too long
        raise SchemaError(f"model is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("model must be a JSON object")
    version = _model_count(doc, "format_version", 1)
    if version != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unsupported model format version: {version}")
    std = _model_field(doc, "standardization", dict)
    stat_names = _model_field(std, "stat_names", list)
    if not all(isinstance(name, str) for name in stat_names):
        raise SchemaError("model field 'stat_names' must list strings")
    n_samples = _model_count(doc, "n_samples", 2)
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
    if kind is not None and type(value) is not kind:  # a bool is no integer here
        raise SchemaError(
            f"model field {key!r} is {JSON_TYPES[type(value)]}, expected {JSON_TYPES[kind]}"
        )
    return value


def _model_count(doc: dict, key: str, low: int) -> int:
    """An integer model field from ``low`` to below 2**63."""
    value = _model_field(doc, key, int)
    if not low <= value < 2**63:
        raise SchemaError(f"model field {key!r} must be an integer from {low} to below 2**63")
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
