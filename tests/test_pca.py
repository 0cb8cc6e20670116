import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import conftest
from conftest import STATS, power_fit
from statspace import (
    NumericalError,
    ParameterError,
    PcaModel,
    StandardizationParams,
    SchemaError,
    StatTable,
    ValidationError,
    component_spectrum,
    explained_variance_ratio,
    fit_pca,
    load_model,
    save_model,
    standardize,
    top_loadings,
    transform,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
DROP = object()  # marks a model field to delete


def model_text(model: PcaModel) -> str:
    """The text of the model file that ``save_model`` writes."""
    return save_model(model, io.StringIO()).decode()


def model_of(text: str) -> PcaModel:
    """The model that a model file holding ``text`` loads as."""
    return load_model(bytearray(text, "utf-8"))


def make_table(columns: dict[str, list[float]]) -> StatTable:
    names = list(columns)
    values = np.array(list(columns.values())).T
    n = values.shape[0]
    return StatTable(
        entity_ids=[f"e{i}" for i in range(n)],
        entity_names=[f"E{i}" for i in range(n)],
        minutes=[100.0] * n,
        stat_names=names,
        values=values,
    )


def brute_force_eig(standardized: np.ndarray):
    """Independent oracle: full eigendecomposition of the sample covariance."""
    cov = standardized.T @ standardized / (standardized.shape[0] - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def align_sign(vector: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return vector if float(vector @ reference) >= 0 else -vector


def correlated_pair_table() -> StatTable:
    """Two columns with sample correlation 1/2, built from orthogonal patterns."""
    a = math.sqrt(3.0) / 2.0
    u = np.array([a, -a, a, -a])
    v = np.array([a, a, -a, -a])
    return make_table({"s1": list(u), "s2": list(0.5 * u + math.sqrt(0.75) * v)})


class TestStandardize:
    def test_small_column_exact(self):
        table = make_table({"s1": [1.0, 2.0, 3.0], "s2": [4.0, 0.0, 2.0]})
        params, Z = standardize(table)
        assert params.means[0] == 2.0
        assert params.std_devs[0] == 1.0
        np.testing.assert_array_equal(Z[:, 0], [-1.0, 0.0, 1.0])

    def test_output_moments(self, fitted_pipeline):
        _, _, Z, _ = fitted_pipeline
        scale = np.abs(Z).max()
        assert np.abs(Z.mean(axis=0)).max() < 1e-12 * scale
        assert np.abs(Z.var(axis=0, ddof=1) - 1.0).max() < 1e-10

    def test_constant_column_dropped_with_warning(self):
        table = make_table({"s1": [1.0, 2.0, 3.0], "flat": [5.0, 5.0, 5.0]})
        with pytest.warns(UserWarning, match="flat"):
            params, Z = standardize(table)
        assert params.stat_names == ["s1"]
        assert Z.shape == (3, 1)

    def test_overflowing_std_dev_is_a_numerical_error(self, recwarn):
        table = make_table({"s1": [1.0, 2.0, 3.0], "huge": [1e308, -1e308, 1e308]})
        with pytest.raises(NumericalError) as raised:
            standardize(table)
        assert str(raised.value) == "standard deviation overflows to a non-finite value in ['huge']"
        assert not recwarn.list  # no numpy warning on the way

    def test_overflowing_value_is_a_numerical_error(self, recwarn):
        params = StandardizationParams(["a", "b"], [0.0, 0.0], [1.0, 5e-324])
        with pytest.raises(NumericalError) as raised:
            params.apply(np.array([[1.0, 0.0], [2.0, 1.0]]))
        assert str(raised.value) == "standardization overflows to a non-finite value in ['b']"
        assert not recwarn.list

    def test_identical_columns_standardize_identically(self):
        table = make_table({"s1": [1.0, 5.0, 2.0], "s2": [1.0, 5.0, 2.0]})
        _, Z = standardize(table)
        np.testing.assert_array_equal(Z[:, 0], Z[:, 1])

    def test_with_transform_makes_one_temporary(self):
        # standardize and transform each build their n x p output in place,
        # so the two hold one n x p array beyond what they return
        rng = np.random.default_rng(5)
        n, p = 4000, 120
        table = make_table({f"s{j}": list(rng.normal(j, 1.0 + j, size=n)) for j in range(p)})
        params, Z = standardize(table)
        model = fit_pca(Z, 4, params)
        del Z
        tracemalloc.start()
        try:
            params, Z = standardize(table)
            scores = transform(model, table).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = n * p * 8
        extra = peak - Z.nbytes - scores.nbytes
        assert extra <= 1.25 * block, f"{extra / block:.2f} n x p arrays beyond the outputs"
        # the bits of the two-temporary expression
        want = (table.values - params.means) / params.std_devs
        assert Z.tobytes() == want.tobytes()
        assert scores.tobytes() == (want @ model.loadings.T).tobytes()


class TestFitPca:
    def test_rank_one_pair(self):
        table = make_table({"s1": [1.0, 2.0, 3.0], "s2": [1.0, 2.0, 3.0]})
        _, Z = standardize(table)
        model = fit_pca(Z, 2, standardize(table)[0])
        np.testing.assert_allclose(model.component_variances, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(model.loadings[0], [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_half_correlation_analytic(self):
        params, Z = standardize(correlated_pair_table())
        for fit in (fit_pca, power_fit):
            model = fit(Z, 2, params)
            np.testing.assert_allclose(
                model.component_variances, [1.5, 0.5], atol=1e-12
            )
            np.testing.assert_allclose(
                model.loadings,
                [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]],
                atol=1e-10,
            )

    @pytest.mark.parametrize("method", ["eig", "power"])
    def test_random_matrix_matches_brute_force(self, method):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 6))
        Z = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        params, _ = standardize(
            make_table({f"s{j}": list(X[:, j]) for j in range(6)})
        )
        model = {"eig": fit_pca, "power": power_fit}[method](Z, 6, params)
        vals, vecs = brute_force_eig(Z)
        np.testing.assert_allclose(model.component_variances, vals, rtol=1e-10)
        for j in range(6):
            oracle = align_sign(vecs[:, j], model.loadings[j])
            np.testing.assert_allclose(model.loadings[j], oracle, atol=1e-8)

    def test_power_past_the_data_rank(self, monkeypatch):
        # rank-2 data: once the two components are found, the residual is
        # empty and the power solver completes the basis by construction
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2)) @ rng.normal(size=(2, 5))
        params, Z = standardize(make_table({f"s{j}": list(X[:, j]) for j in range(5)}))
        completions = []
        real = conftest._orthogonal_completion

        def spy(*args):
            completions.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(conftest, "_orthogonal_completion", spy)
        power = power_fit(Z, 4, params)
        eig = fit_pca(Z, 4, params)
        assert completions == [2, 3]
        assert np.abs(power.loadings @ power.loadings.T - np.eye(4)).max() < 1e-12
        np.testing.assert_allclose(power.component_variances, eig.component_variances, atol=1e-12)
        assert (np.abs(power.component_variances[2:]) < 1e-12).all()
        # past the rank the null space has no unique basis, so only the
        # first two loadings are compared
        np.testing.assert_allclose(power.loadings[:2], eig.loadings[:2], atol=1e-8)

    def test_k_out_of_range(self):
        params, Z = standardize(correlated_pair_table())
        for k in (0, 3):
            with pytest.raises(ParameterError):
                fit_pca(Z, k, params)

    def test_requires_centered_input(self):
        params, Z = standardize(correlated_pair_table())
        with pytest.raises(ParameterError, match="mean 0"):
            fit_pca(Z + 1.0, 2, params)

    def test_power_budget_exhaustion_reports_component(self, monkeypatch):
        monkeypatch.setattr(conftest, "POWER_TOL", 0.0)
        monkeypatch.setattr(conftest, "POWER_MAX_ITER", 3)
        params, Z = standardize(correlated_pair_table())
        with pytest.raises(NumericalError, match="component 1"):
            conftest._power_deflation(Z, 2)

    def test_orthonormal_loadings(self, fitted_pipeline):
        _, _, _, model = fitted_pipeline
        gram = model.loadings @ model.loadings.T
        assert np.abs(gram - np.eye(model.k)).max() < 1e-8

    def test_variance_conservation_full_rank(self, fitted_pipeline):
        _, params, Z, _ = fitted_pipeline
        p = Z.shape[1]
        model = fit_pca(Z, p, params)
        assert abs(model.component_variances.sum() - p) < 1e-6
        assert abs(model.total_variance - p) < 1e-6

    def test_sign_canonicalization(self, fitted_pipeline):
        _, _, _, model = fitted_pipeline
        for w in model.loadings:
            assert w[np.argmax(np.abs(w))] > 0

    def test_refit_bit_identical(self, fitted_pipeline):
        _, params, Z, model = fitted_pipeline
        again = fit_pca(Z, model.k, params)
        assert np.array_equal(model.loadings, again.loadings)
        assert model_text(model) == model_text(again)


class TestExplainedVariance:
    def test_rank_one_ratios(self):
        table = make_table({"s1": [1.0, 2.0, 3.0], "s2": [1.0, 2.0, 3.0]})
        params, Z = standardize(table)
        ratios = explained_variance_ratio(fit_pca(Z, 2, params))
        np.testing.assert_allclose(ratios, [1.0, 0.0], atol=1e-12)

    def test_half_correlation_ratios(self):
        params, Z = standardize(correlated_pair_table())
        ratios = explained_variance_ratio(fit_pca(Z, 2, params))
        np.testing.assert_allclose(ratios, [0.75, 0.25], atol=1e-12)

    def test_ratios_non_increasing_and_sum_to_one(self, fitted_pipeline):
        _, params, Z, _ = fitted_pipeline
        model = fit_pca(Z, Z.shape[1], params)
        ratios = explained_variance_ratio(model)
        assert (np.diff(ratios) <= 1e-12).all()
        assert abs(ratios.sum() - 1.0) < 1e-8

    def test_spectrum_matches_full_fit(self, fitted_pipeline):
        _, params, Z, _ = fitted_pipeline
        spectrum = component_spectrum(Z)
        model = fit_pca(Z, Z.shape[1], params)
        np.testing.assert_allclose(spectrum, model.component_variances, atol=1e-10)


class TestTransform:
    def test_mean_row_maps_to_origin_and_loading_row_to_axis(self, fitted_pipeline):
        table, params, _, model = fitted_pipeline
        w1_row = params.means + params.std_devs * model.loadings[0]
        probe = StatTable(
            entity_ids=["w1", "mean"],
            entity_names=["w1", "mean"],
            minutes=[1.0, 1.0],
            stat_names=list(table.stat_names),
            values=np.array([w1_row, params.means]),
        )
        scores = transform(model, probe).values
        expected_axis = np.zeros(model.k)
        expected_axis[0] = 1.0
        np.testing.assert_allclose(scores[0], expected_axis, atol=1e-10)
        np.testing.assert_allclose(scores[1], np.zeros(model.k), atol=1e-12)

    def test_fitting_sample_score_variances(self, fitted_pipeline):
        table, _, _, model = fitted_pipeline
        scores = transform(model, table).values
        sample = scores.var(axis=0, ddof=1)
        np.testing.assert_allclose(sample, model.component_variances, rtol=1e-6)
        assert np.abs(scores.mean(axis=0)).max() < 1e-8

    def test_full_rank_reconstruction(self, fitted_pipeline):
        table, params, Z, _ = fitted_pipeline
        model = fit_pca(Z, Z.shape[1], params)
        scores = transform(model, table).values
        np.testing.assert_allclose(scores @ model.loadings, Z, atol=1e-8)

    def test_column_mismatch_lists_difference(self, fitted_pipeline):
        table, _, _, model = fitted_pipeline
        renamed = StatTable(
            entity_ids=list(table.entity_ids),
            entity_names=list(table.entity_names),
            minutes=list(table.minutes),
            stat_names=["bogus", *table.stat_names[1:]],
            values=table.values,
        )
        with pytest.raises(SchemaError, match=table.stat_names[0]) as caught:
            transform(model, renamed)
        assert "bogus" not in str(caught.value)

    def test_overflowing_projection_is_a_numerical_error(self, recwarn):
        params = StandardizationParams(["a", "b"], [0.0, 0.0], [1.0, 1.0])
        model = PcaModel(params, [[0.6, 0.8]], [1.0], 2.0, 3)
        table = make_table({"a": [1.5e308, 1.0, 0.0], "b": [1.5e308, 2.0, 0.0]})
        with pytest.raises(NumericalError) as raised:
            transform(model, table)
        assert str(raised.value) == "projection overflows to a non-finite value in ['PC1']"
        assert not recwarn.list

    def test_column_reorder_gives_identical_scores(self, fitted_pipeline):
        table, _, _, model = fitted_pipeline
        names = list(table.stat_names)
        names[0], names[1] = names[1], names[0]
        values = table.values.copy()
        values[:, [0, 1]] = values[:, [1, 0]]
        reordered = StatTable(
            entity_ids=list(table.entity_ids),
            entity_names=list(table.entity_names),
            minutes=list(table.minutes),
            stat_names=names,
            values=values,
        )
        assert (transform(model, reordered).values == transform(model, table).values).all()

    def test_extra_columns_ignored(self, fitted_pipeline):
        table, _, _, model = fitted_pipeline
        wider = StatTable(
            entity_ids=list(table.entity_ids),
            entity_names=list(table.entity_names),
            minutes=list(table.minutes),
            stat_names=["extra", *table.stat_names],
            values=np.column_stack([np.arange(table.n_entities), table.values]),
        )
        assert (transform(model, wider).values == transform(model, table).values).all()


class TestGuards:
    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("one-dimensional", ParameterError, "standardized input must be a 2-D matrix"),
            (
                "column-count",
                SchemaError,
                "matrix has 2 columns but standardization lists {p} names",
            ),
            ("negative-count", ParameterError, "count must be >= 0, got -1"),
            ("one-row", ValidationError, "standardization needs at least 2 rows"),
            ("one-sample", ValidationError, "n_samples must be >= 2"),
        ],
    )
    def test_raise_typed_errors(self, fitted_pipeline, case, error, message):
        _, params, Z, model = fitted_pipeline
        call = {
            "one-dimensional": lambda: fit_pca(Z[:, 0], 1, params),
            "column-count": lambda: fit_pca(Z[:, :2], 1, params),
            "negative-count": lambda: top_loadings(model, 0, count=-1),
            "one-row": lambda: standardize(StatTable(["a"], ["a"], [1.0], ["s"], np.ones((1, 1)))),
            "one-sample": lambda: PcaModel(
                model.standardization, model.loadings, model.component_variances,
                model.total_variance, n_samples=1,
            ),
        }[case]
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message.format(p=len(STATS))


class TestTopLoadings:
    def _model(self, coefficients):
        # fabricate a one-component model around the given loading vector
        w = np.asarray(coefficients, dtype=float)
        w = w / np.linalg.norm(w)
        from statspace import PcaModel, StandardizationParams

        p = len(w)
        return PcaModel(
            standardization=StandardizationParams(
                stat_names=[f"s{j + 1}" for j in range(p)],
                means=np.zeros(p),
                std_devs=np.ones(p),
            ),
            loadings=w[None, :],
            component_variances=np.array([1.0]),
            total_variance=float(p),
            n_samples=10,
        )

    def test_zero_threshold_partitions_all(self):
        model = self._model([0.5, -0.5, 0.0, 0.25])
        positives, negatives = top_loadings(model, 0, count=4)
        names = [n for n, _ in positives] + [n for n, _ in negatives]
        assert sorted(names) == ["s1", "s2", "s3", "s4"]
        assert any(n == "s3" for n, _ in positives)  # zero goes to positive list

    def test_sorted_by_signed_magnitude_with_stable_ties(self):
        model = self._model([0.2, 0.6, 0.2, -0.1, -0.4])
        positives, negatives = top_loadings(model, 0, count=5)
        assert [n for n, _ in positives] == ["s2", "s1", "s3"]
        assert [n for n, _ in negatives] == ["s5", "s4"]

    def test_component_out_of_range(self):
        model = self._model([1.0, 0.0])
        with pytest.raises(ParameterError):
            top_loadings(model, 1, count=1)


class TestModelSerialization:
    def test_json_round_trip(self, fitted_pipeline):
        _, _, _, model = fitted_pipeline
        text = model_text(model)
        again = model_of(text)
        assert np.array_equal(again.loadings, model.loadings)
        assert np.array_equal(again.component_variances, model.component_variances)
        assert again.standardization.stat_names == model.standardization.stat_names
        assert np.array_equal(again.standardization.means, model.standardization.means)
        assert again.total_variance == model.total_variance
        assert again.n_samples == model.n_samples
        assert model_text(again) == text

    def test_version_check(self):
        with pytest.raises(SchemaError, match="version"):
            model_of(json.dumps({"format_version": 99}))

    @pytest.mark.parametrize(
        "path, value, error",
        [
            pytest.param(("n_samples",), DROP, SchemaError, id="missing-n_samples"),
            pytest.param(("standardization", "means"), DROP, SchemaError, id="missing-means"),
            pytest.param(("n_samples",), "17", SchemaError, id="string-n_samples"),
            pytest.param(("n_samples",), True, SchemaError, id="bool-n_samples"),
            pytest.param(("total_variance",), "6", SchemaError, id="string-total"),
            pytest.param(("loadings",), None, SchemaError, id="null-loadings"),
            pytest.param(("loadings", 0), [1.0], SchemaError, id="ragged-loadings"),
            pytest.param(("loadings", 0, 0), "x", SchemaError, id="string-loading"),
            pytest.param(("loadings", 0, 0), math.nan, ValidationError, id="nan-loading"),
            pytest.param(("standardization", "means", 0), math.nan, ValidationError, id="nan-mean"),
            pytest.param(
                ("standardization", "std_devs", 1), math.inf, ValidationError, id="inf-std-dev"
            ),
            pytest.param(
                ("component_variances", 0), math.nan, ValidationError, id="nan-variance"
            ),
            pytest.param(("total_variance",), math.inf, ValidationError, id="inf-total"),
            pytest.param(
                ("standardization", "stat_names", 1), STATS[0], SchemaError, id="repeated-stat"
            ),
        ],
    )
    def test_bad_field_is_typed_error(self, fitted_pipeline, path, value, error):
        doc = json.loads(model_text(fitted_pipeline[3]))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
        field = [key for key in path if isinstance(key, str)][-1]
        with pytest.raises(error, match=field):
            model_of(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("format_version",), True, "'format_version' is a boolean, expected an integer"),
            (("format_version",), None, "'format_version' is null, expected an integer"),
            (("n_samples",), 17.0, "'n_samples' is a number, expected an integer"),
            (("n_samples",), "17", "'n_samples' is a string, expected an integer"),
            (("standardization",), [], "'standardization' is a list, expected an object"),
            (("standardization", "stat_names"), "s1", "'stat_names' is a string, expected a list"),
            (("standardization", "stat_names"), {}, "'stat_names' is an object, expected a list"),
        ],
        ids=["bool", "null", "float", "string", "list", "string-names", "object-names"],
    )
    def test_wrong_type_names_json_types(self, fitted_pipeline, path, value, message):
        doc = json.loads(model_text(fitted_pipeline[3]))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(SchemaError) as caught:
            model_of(json.dumps(doc))
        assert str(caught.value) == f"model field {message}"

    def test_repeated_stat_name_found_in_linear_time(self):
        # counting each name in the list would take time in the square of p
        names = [f"s{j}" for j in range(100_000)]
        names[-1] = "s5"
        p = len(names)
        start = time.perf_counter()
        with pytest.raises(SchemaError, match=r"more than once: \['s5'\]"):
            StandardizationParams(names, np.zeros(p), np.ones(p))
        assert time.perf_counter() - start < 5.0

    def test_huge_loadings_are_not_unit_norm_and_do_not_overflow(self, recwarn):
        params = StandardizationParams(["a", "b"], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError, match="unit norm"):
            PcaModel(params, [[1e308, 1e308]], [1.0], 2.0, 3)
        assert not recwarn.list  # taking the norm would overflow

    def test_not_json(self):
        with pytest.raises(SchemaError, match="JSON"):
            model_of("{not json")
