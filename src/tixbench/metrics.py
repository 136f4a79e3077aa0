"""Scoring and aggregation: normalized MAE, quantile losses, rank summaries.

The weighted quantile loss pools the per-point losses across everything
being scored before normalizing by the absolute target scale (doubled), and
then averages across quantile levels. Rank aggregation treats every
(dataset, scenario) pair as one task, ranks imputers within it with
mid-rank ties, and averages ranks per imputer across tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class ScoreRecord:
    """One scored (dataset, imputer, scenario) segment."""

    dataset: str
    imputer_id: str
    scenario_label: str
    n_points: int
    mae: float
    wql: float | None = None

    def __post_init__(self) -> None:
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.mae < 0 or (self.wql is not None and self.wql < 0):
            raise ValueError("scores must be nonnegative")


def znorm_mae(truth, pred, std: float) -> float:
    """Mean absolute error divided by ``std``, the ``floored_std`` of the visible context."""
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise ValueError("length mismatch")
    if t.size < 1:
        raise ValueError("nothing to score")
    return float(np.mean(np.abs(t - p)) / std)


def quantile_loss(q, x, alpha: float):
    """Pinball loss: alpha*(x - q) when x > q, else (1 - alpha)*(q - x).

    Elementwise over array inputs; returns a float for scalars.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly in (0, 1)")
    qa = np.asarray(q, dtype=float)
    xa = np.asarray(x, dtype=float)
    out = np.where(xa > qa, alpha * (xa - qa), (1.0 - alpha) * (qa - xa))
    return float(out) if out.ndim == 0 else out


def wql(quantile_preds: Mapping[float, np.ndarray], truth, alphas: Sequence[float] | None = None) -> float:
    """Weighted quantile loss averaged over levels.

    Per level: 2 * sum(QL_alpha) / sum(|truth|), sums taken over every scored
    point; the result is the unweighted mean across levels. The levels are
    ``alphas`` when given, each of which ``quantile_preds`` must hold, and
    otherwise every level it holds, in ascending order.
    """
    t = np.asarray(truth, dtype=float)
    scale = float(np.sum(np.abs(t)))
    if scale == 0.0:
        raise ValueError("undefined scale")
    per_level = []
    for alpha in sorted(quantile_preds) if alphas is None else alphas:
        if alpha not in quantile_preds:
            raise ValueError(f"missing quantile level {alpha}")
        q = np.asarray(quantile_preds[alpha], dtype=float)
        if q.shape != t.shape:
            raise ValueError("length mismatch")
        per_level.append(2.0 * float(np.sum(quantile_loss(q, t, alpha))) / scale)
    return float(np.mean(per_level))


def _row_value(row, key: str):
    if isinstance(row, Mapping):
        return row.get(key)
    return getattr(row, key)


def aggregate(records: Iterable, group_by: Sequence[str]) -> list[dict]:
    """Unweighted mean of mae (and wql, when present) within each group.

    Accepts ScoreRecords or dict-like summary rows, so coarser levels (the
    grand mean over scenarios per dataset, or over datasets per imputer) can
    be built by re-aggregating the previous level's output.
    """
    groups: dict[tuple, list] = {}
    for rec in records:
        key = tuple(_row_value(rec, k) for k in group_by)
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        maes = [float(_row_value(r, "mae")) for r in members]
        wqls = [_row_value(r, "wql") for r in members]
        wqls = [float(w) for w in wqls if w is not None]
        row = dict(zip(group_by, key))
        row["n_records"] = len(members)
        row["mae"] = float(np.mean(maes))
        row["wql"] = float(np.mean(wqls)) if wqls else None
        rows.append(row)
    return rows


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks from 1, ties sharing their mean rank: 1 + (number below) + (ties - 1) / 2."""
    below = (values[:, None] > values).sum(axis=1)
    ties = (values[:, None] == values).sum(axis=1)
    return 1 + below + (ties - 1) / 2


def average_ranks(records: Iterable, metric: str = "mae") -> dict[str, float]:
    """Mean rank per imputer across all (dataset, scenario) tasks.

    Scores are first averaged per (dataset, scenario, imputer); within each
    task imputers are ranked ascending with ties sharing the mean rank.
    Every task must have a score for every imputer.
    """
    if metric not in ("mae", "wql"):
        raise ValueError("metric must be 'mae' or 'wql'")
    cells = aggregate(records, ("dataset", "scenario_label", "imputer_id"))
    tasks: dict[tuple, dict[str, float]] = {}
    imputers: set[str] = set()
    for row in cells:
        val = row[metric]
        if val is None:
            raise ValueError("incomplete score matrix")
        tasks.setdefault((row["dataset"], row["scenario_label"]), {})[row["imputer_id"]] = val
        imputers.add(row["imputer_id"])
    order = sorted(imputers)
    totals = {name: 0.0 for name in order}
    for key in sorted(tasks):
        scores = tasks[key]
        if set(scores) != imputers:
            raise ValueError("incomplete score matrix")
        ranks = _mid_ranks(np.array([scores[name] for name in order]))
        for name, rank in zip(order, ranks):
            totals[name] += float(rank)
    n_tasks = len(tasks)
    if n_tasks == 0:
        return {}
    return {name: totals[name] / n_tasks for name in order}
