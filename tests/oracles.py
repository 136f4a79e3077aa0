"""Brute-force reference implementations, kept independent of the library.

Everything here trades efficiency for obviousness: plain loops, no shared
code with the package, so a bug in the implementation cannot hide in its
own oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def two_pass_mean_std(values):
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var**0.5


def ridge_oracle(X, y, lam, std_floor=1e-8):
    """Standardize, then solve the penalized least squares via an augmented
    lstsq (a different solve path than normal equations)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mx = X.mean(axis=0)
    sx = np.maximum(X.std(axis=0), std_floor)
    Xs = (X - mx) / sx
    my = y.mean()
    ys = y - my
    d = X.shape[1]
    aug_X = np.vstack([Xs, np.sqrt(lam) * np.eye(d)])
    aug_y = np.concatenate([ys, np.zeros(d)])
    ws = np.linalg.lstsq(aug_X, aug_y, rcond=None)[0]
    w = ws / sx
    b = my - float(w @ mx)
    return w, b


def pinball_objective(pred, y, alpha):
    total = 0.0
    for p, v in zip(pred, y):
        if v > p:
            total += alpha * (v - p)
        else:
            total += (1.0 - alpha) * (p - v)
    return total


def pinball_lp_oracle(X, y, alpha):
    """Minimal pinball loss of the unpenalized linear quantile fit (lam=0).

    HiGHS solves the dual of the Koenker-Bassett LP, max y'a subject to
    Z'a = 0 and alpha - 1 <= a <= alpha with Z = [X 1]; its optimum equals
    the primal one. The primal form can fail in presolve on numerically
    rank-deficient bases.
    """
    y = np.asarray(y, dtype=float)
    Z = np.column_stack([np.asarray(X, dtype=float), np.ones(len(y))])
    res = linprog(
        -y,
        A_eq=Z.T,
        b_eq=np.zeros(Z.shape[1]),
        bounds=[(alpha - 1.0, alpha)] * len(y),
        method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(f"LP oracle failed: {res.message}")
    return float(-res.fun)


def grid_quantile_intercept(y, alpha, n_grid=2001):
    """Scan a fine grid of candidate intercepts; return the best and the step."""
    y = np.asarray(y, dtype=float)
    lo, hi = y.min() - 1.0, y.max() + 1.0
    grid = np.linspace(lo, hi, n_grid)
    objs = [pinball_objective([g] * len(y), y, alpha) for g in grid]
    return float(grid[int(np.argmin(objs))]), float(grid[1] - grid[0])


def grid_quantile_region(y, alpha, n_grid=2001):
    """Grid argmin set of the intercept-only pinball objective.

    When alpha * n is an integer the minimizer is a whole interval between
    order statistics; returns (lowest, highest) minimizing grid point and
    the grid step.
    """
    y = np.asarray(y, dtype=float)
    lo, hi = y.min() - 1.0, y.max() + 1.0
    grid = np.linspace(lo, hi, n_grid)
    objs = np.array([pinball_objective([g] * len(y), y, alpha) for g in grid])
    best = objs.min()
    flat = grid[objs <= best + 1e-9 * max(best, 1.0)]
    return float(flat.min()), float(flat.max()), float(grid[1] - grid[0])


def linear_interp_oracle(values, obs_mask, eval_positions):
    """Two-anchor straight line per position, NOCB/LOCF at the edges."""
    n = len(values)
    out = []
    for t in eval_positions:
        # Walk out from t to the nearest visible position on each side.
        a = t - 1
        while a >= 0 and not obs_mask[a]:
            a -= 1
        b = t + 1
        while b < n and not obs_mask[b]:
            b += 1
        if a >= 0 and b < n:
            w = (t - a) / (b - a)
            out.append((1 - w) * values[a] + w * values[b])
        elif b < n:
            out.append(values[b])
        else:
            out.append(values[a])
    return np.array(out)


def locf_oracle(values, obs_mask, eval_positions):
    first = list(obs_mask).index(True)
    out = []
    for t in eval_positions:
        # Walk back from t to the last visible position; none before t reads the first.
        a = t
        while a >= 0 and not obs_mask[a]:
            a -= 1
        out.append(values[a if a >= 0 else first])
    return np.array(out)


def seasonal_oracle(values, obs_mask, eval_positions, season):
    n = len(values)
    out = []
    for t in eval_positions:
        found = None
        k = 1
        while k * season <= n:
            for probe in (t - k * season, t + k * season):
                if 0 <= probe < n and obs_mask[probe]:
                    found = values[probe]
                    break
            if found is not None:
                break
            k += 1
        if found is None:
            found = locf_oracle(values, obs_mask, [t])[0]
        out.append(found)
    return np.array(out)


def wql_oracle(quantile_preds, truth, alphas):
    """Literal double loop over levels and points."""
    denom = sum(abs(x) for x in truth)
    level_scores = []
    for alpha in alphas:
        total = 0.0
        for q, x in zip(quantile_preds[alpha], truth):
            if x > q:
                total += alpha * (x - q)
            else:
                total += (1.0 - alpha) * (q - x)
        level_scores.append(2.0 * total / denom)
    return sum(level_scores) / len(level_scores)


def ranks_oracle(task_scores):
    """task_scores: {task: {imputer: score}} -> {imputer: mean rank}."""
    imputers = sorted(next(iter(task_scores.values())))
    totals = {m: 0.0 for m in imputers}
    for scores in task_scores.values():
        ordered = sorted(imputers, key=lambda m: scores[m])
        ranks = {}
        i = 0
        while i < len(ordered):
            j = i
            while j + 1 < len(ordered) and scores[ordered[j + 1]] == scores[ordered[i]]:
                j += 1
            mean_rank = (i + 1 + j + 1) / 2.0
            for k in range(i, j + 1):
                ranks[ordered[k]] = mean_rank
            i = j + 1
        for m in imputers:
            totals[m] += ranks[m]
    return {m: totals[m] / len(task_scores) for m in imputers}
