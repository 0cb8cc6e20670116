"""Independent checks of every statspace output against the generated truth.

``Reference`` recomputes the pipeline with plain numpy (and ``scipy.special``
for the t tail) from the generator's own arrays, never from anything the
program wrote. Each ``check_*`` returns a list of problems; an empty list
means the output is right. Similarity rankings are recomputed exactly: the
squared differences are accumulated in sorted component order, which gives
the same bits as the program's scalar loop, and ties break on entity id.
"""

from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from gen import Players

LOADING_TOL = 1e-8
SCORE_TOL = 1e-8  # relative to the largest reference score
OLS_TOL = 1e-7
P_VALUE_TOL = 1e-8


def _pc_names(k: int) -> list[str]:
    return [f"PC{c + 1}" for c in range(k)]


def _orient(vector: np.ndarray) -> np.ndarray:
    return -vector if vector[np.argmax(np.abs(vector))] < 0 else vector


class Reference:
    """The pipeline's results recomputed from the generator's arrays."""

    def __init__(self, players: Players, rate_only: bool, k: int):
        cols = players.columns(rate_only)
        values = players.kept_values[:, cols]
        n = values.shape[0]
        self.k = k
        self.ids = list(players.kept_ids)
        self.names = dict(zip(players.kept_ids, players.kept_names))
        self.minutes = players.kept_minutes
        self.stat_names = [players.stat_names[j] for j in cols]
        self.means = values.mean(axis=0)
        self.std_devs = values.std(axis=0, ddof=1)
        z = (values - self.means) / self.std_devs
        eigvals, eigvecs = np.linalg.eigh(z.T @ z / (n - 1))
        order = np.argsort(-eigvals)
        self.spectrum = np.maximum(eigvals[order], 0.0)
        self.loadings = np.array([_orient(eigvecs[:, j]) for j in order[:k]])
        self.scores = z @ self.loadings.T

        row = {pid: i for i, pid in enumerate(self.ids)}
        self.team_codes = sorted(set(players.membership.values()))
        self.team_minutes = np.zeros(len(self.team_codes))
        self.team_scores = np.zeros((len(self.team_codes), k))
        for t, code in enumerate(self.team_codes):
            idx = [row[pid] for pid, team in players.membership.items() if team == code]
            m = self.minutes[idx]
            self.team_minutes[t] = m.sum()
            self.team_scores[t] = m @ self.scores[idx] / m.sum()
        self.win_pct = np.array([players.win_pct[c] for c in self.team_codes])

    def signed(self, signs: np.ndarray) -> "Reference":
        """A copy whose component signs match the program's fit."""
        out = copy.copy(self)
        out.loadings = self.loadings * signs[:, None]
        out.scores = self.scores * signs
        out.team_scores = self.team_scores * signs
        return out

    def ols(self) -> dict:
        x = np.column_stack([np.ones(len(self.team_codes)), self.team_scores])
        y = self.win_pct
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ beta
        df = x.shape[0] - x.shape[1]
        sigma2 = float(resid @ resid) / df
        se = np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))
        centered = y - y.mean()
        return {
            "terms": ["intercept", *_pc_names(self.k)],
            "coefficients": beta,
            "std_errors": se,
            "p_values": 2.0 * stdtr(df, -np.abs(beta / se)),
            "r_squared": 1.0 - float(resid @ resid) / float(centered @ centered),
            "df": df,
        }


def _close(label: str, got, want, tol: float, scale: float = 1.0) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    worst = float(np.max(np.abs(got - want), initial=0.0))
    if not worst <= tol * scale:
        return [f"{label}: off by {worst:.3e} (tolerance {tol * scale:.1e})"]
    return []


def same(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: {str(got)[:80]} != {str(want)[:80]}"]


def loading_signs(loadings: np.ndarray, ref: Reference) -> np.ndarray:
    """+1/-1 per component: the orientation the program chose."""
    if loadings.shape != ref.loadings.shape:
        return np.ones(ref.k)
    return np.where(np.sum(loadings * ref.loadings, axis=1) < 0, -1.0, 1.0)


def check_fit(loadings, variances, means, std_devs, stat_names, ref: Reference) -> list[str]:
    """A fitted model against the reference, loadings up to sign."""
    loadings = np.asarray(loadings, dtype=float)
    signs = loading_signs(loadings, ref)
    return (
        same("stat_names", list(stat_names), ref.stat_names)
        + _close("loadings", loadings * signs[:, None], ref.loadings, LOADING_TOL)
        + _close("component_variances", variances, ref.spectrum[: ref.k], 1e-9, ref.spectrum[0])
        + _close("means", means, ref.means, 1e-12, float(np.abs(ref.means).max()))
        + _close("std_devs", std_devs, ref.std_devs, 1e-12, float(ref.std_devs.max()))
    )


def _scale(values: np.ndarray) -> float:
    return max(1.0, float(np.abs(values).max()))


def check_scores(ids, minutes, scores, ref: Reference) -> list[str]:
    """Per-entity scores; ``ref`` already carries the program's signs."""
    return (
        same("entity_ids", list(ids), ref.ids)
        + _close("minutes", minutes, ref.minutes, 0.0)
        + _close("scores", scores, ref.scores, SCORE_TOL, _scale(ref.scores))
    )


def rank_reference(
    scores: np.ndarray, ids: list[str], query: int, top: int, comps
) -> list[tuple[str, float]]:
    """Nearest entities by sum of squared differences, (value, id) order."""
    total = np.zeros(scores.shape[0])
    for c in sorted(comps):
        d = scores[query, c] - scores[:, c]
        total = total + d * d
    total[query] = np.inf
    top = min(top, len(ids) - 1)
    cutoff = np.partition(total, top - 1)[top - 1]
    pool = np.flatnonzero(total <= cutoff)
    ranked = sorted((float(total[i]), ids[i]) for i in pool)
    return [(entity_id, value) for value, entity_id in ranked[:top]]


# ---------------------------------------------------------------------------
# CLI output files
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class ChainChecker:
    """Checks the files one CLI chain writes, in chain order.

    The component signs come from the chain's own ``model.json``, and the
    ``similar`` ranking is recomputed from the chain's own scores file, so
    each later check rests on an earlier verified output.
    """

    def __init__(self, ref: Reference, fmt: str, query: str, top: int, weights: dict[int, float]):
        self.base = ref
        self.ref = ref
        self.fmt = fmt
        self.query = query
        self.top = top
        self.weights = weights
        self.scores: tuple[list[str], np.ndarray] | None = None

    def check(self, command: str, out: Path) -> list[str]:
        try:
            return getattr(self, f"_{command}")(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{command}: unreadable output: {type(exc).__name__}: {exc}"]

    def _fit(self, out: Path) -> list[str]:
        doc = _read_json(out / "model.json")
        std = doc["standardization"]
        loadings = np.array(doc["loadings"], dtype=float)
        self.ref = self.base.signed(loading_signs(loadings, self.base))
        p = len(self.base.stat_names)
        return (
            check_fit(
                loadings,
                doc["component_variances"],
                std["means"],
                std["std_devs"],
                std["stat_names"],
                self.base,
            )
            + _close("total_variance", doc["total_variance"], p, 1e-9, p)
            + same("n_samples", doc["n_samples"], len(self.base.ids))
            + self._scree(out)
        )

    def _scree(self, out: Path) -> list[str]:
        path = out / f"scree.{self.fmt}"
        if self.fmt == "json":
            doc = _read_json(path)
            rows = [(r["component"], r["variance"], r["cumulative_ratio"]) for r in doc]
        else:
            header, body = _read_csv(path)
            if header != ["component", "variance", "cumulative_ratio"]:
                return [f"scree header {header}"]
            rows = [(int(c), float(v), float(r)) for c, v, r in body]
        spectrum = self.base.spectrum
        count = min(10, len(spectrum))
        cumulative = np.cumsum(spectrum[:count]) / spectrum.sum()
        return (
            same("scree components", [r[0] for r in rows], list(range(1, count + 1)))
            + _close("scree variance", [r[1] for r in rows], spectrum[:count], 1e-9, spectrum[0])
            + _close("scree cumulative", [r[2] for r in rows], cumulative, 1e-9)
        )

    def _scores(self, out: Path) -> list[str]:
        path = out / f"scores.{self.fmt}"
        if self.fmt == "json":
            doc = _read_json(path)
            ids = [e["entity_id"] for e in doc]
            names = [e["entity_name"] for e in doc]
            minutes = [e["minutes"] for e in doc]
            scores = np.array([e["scores"] for e in doc], dtype=float)
        else:
            header, body = _read_csv(path)
            expected = ["entity_id", "entity_name", "minutes", *_pc_names(self.base.k)]
            if header != expected:
                return [f"scores header {header}"]
            ids = [r[0] for r in body]
            names = [r[1] for r in body]
            minutes = [float(r[2]) for r in body]
            scores = np.array([[float(v) for v in r[3:]] for r in body])
        self.scores = (ids, scores)
        want_names = [self.base.names[i] for i in self.base.ids]
        problems = same("entity_names", names, want_names)
        return problems + check_scores(ids, minutes, scores, self.ref)

    def _teams(self, out: Path) -> list[str]:
        path = out / f"teams.{self.fmt}"
        k = self.base.k
        if self.fmt == "json":
            doc = _read_json(path)
            codes = [e["team_code"] for e in doc]
            minutes = [e["total_minutes"] for e in doc]
            scores = np.array([e["scores"] for e in doc], dtype=float)
            win = [e["win_pct"] for e in doc]
            weighted = [e["weighted_score"] for e in doc]
        else:
            header, body = _read_csv(path)
            expected = ["team_code", "total_minutes", *_pc_names(k), "win_pct", "weighted_score"]
            if header != expected:
                return [f"teams header {header}"]
            codes = [r[0] for r in body]
            minutes = [float(r[1]) for r in body]
            scores = np.array([[float(v) for v in r[2 : 2 + k]] for r in body])
            win = [float(r[2 + k]) for r in body]
            weighted = [float(r[3 + k]) for r in body]
        ref = self.ref
        vector = np.zeros(k)
        for c, w in self.weights.items():
            vector[c] = w
        scale = _scale(ref.team_scores)
        return (
            same("team_codes", codes, ref.team_codes)
            + _close("total_minutes", minutes, ref.team_minutes, 1e-12, ref.team_minutes.max())
            + _close("team scores", scores, ref.team_scores, SCORE_TOL, scale)
            + _close("win_pct", win, ref.win_pct, 0.0)
            + _close("weighted_score", weighted, ref.team_scores @ vector, SCORE_TOL, scale)
        )

    def _similar(self, out: Path) -> list[str]:
        if self.scores is None:
            return ["similar: no verified scores output to rank against"]
        ids, scores = self.scores
        want = rank_reference(scores, ids, ids.index(self.query), self.top, range(self.base.k))
        path = out / f"similar.{self.fmt}"
        if self.fmt == "json":
            doc = _read_json(path)
            problems = same("query_id", doc["query_id"], self.query) + same(
                "components_used", doc["components_used"], list(range(self.base.k))
            )
            rows = [(e["rank"], e["entity_id"], e["entity_name"], e["sdi"]) for e in doc["entries"]]
        else:
            header, body = _read_csv(path)
            problems = same("similar header", header, ["rank", "entity_id", "entity_name", "sdi"])
            rows = [(int(r[0]), r[1], r[2], float(r[3])) for r in body]
        expected = [
            (rank, eid, self.base.names[eid], value)
            for rank, (eid, value) in enumerate(want, start=1)
        ]
        return problems + same("ranking", rows, expected)

    def _regress(self, out: Path) -> list[str]:
        want = self.ref.ols()
        beta = want["coefficients"]
        path = out / f"regression.{self.fmt}"
        if self.fmt == "json":
            doc = _read_json(path)
            terms = [t["term"] for t in doc["terms"]]
            coef = [t["coefficient"] for t in doc["terms"]]
            se = [t["std_error"] for t in doc["terms"]]
            pv = [t["p_value"] for t in doc["terms"]]
            problems = _close("r_squared", doc["r_squared"], want["r_squared"], 1e-9) + same(
                "df_residual", doc["df_residual"], want["df"]
            )
        else:
            header, body = _read_csv(path)
            if header != ["term", "coefficient", "std_error", "p_value"]:
                return [f"regression header {header}"]
            terms = [r[0] for r in body]
            coef, se, pv = ([float(r[j]) for r in body] for j in (1, 2, 3))
            problems = []  # the CSV carries neither R-squared nor df; regression.txt has R-squared
        text = (out / "regression.txt").read_text(encoding="utf-8")
        return (
            problems
            + same("terms", terms, want["terms"])
            + _close("coefficients", coef, beta, OLS_TOL, _scale(beta))
            + _close("std_errors", se, want["std_errors"], OLS_TOL, _scale(want["std_errors"]))
            + _close("p_values", pv, want["p_values"], P_VALUE_TOL)
            + same("regression.txt R-squared", f"R-squared: {want['r_squared']:.3f}" in text, True)
        )


def process_problems(command: str, status: int, stderr: str) -> list[str]:
    """A nonzero exit and a JSON error line on stderr are each a failure."""
    problems = [] if status == 0 else [f"{command}: exit status {status}"]
    for line in stderr.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            problems.append(f"{command}: error line {line}")
    return problems
