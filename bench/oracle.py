"""LP oracle for the pinball head (Koenker & Bassett 1978).

At lam=0 the linear quantile fit min_{w,b} sum rho_alpha(y - Xw - b) is a
linear program. With Z = [X 1], its dual is

    max  y'a   s.t.  Z'a = 0,   alpha - 1 <= a <= alpha,

whose optimum equals the minimal pinball loss. HiGHS solves the dual
directly; the primal form fails in presolve on the random basis, which is
numerically rank-deficient (condition number ~1e16 at d=129). The benchmark
refits a fixed sample of the quantile workload's pinball fits at lam=0 and
reports how far the library's objective lies above this optimum.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def pinball_loss(residual: np.ndarray, alpha: float) -> float:
    return float(np.sum(np.where(residual > 0, alpha * residual, (alpha - 1.0) * residual)))


def lp_optimum(X: np.ndarray, y: np.ndarray, alpha: float) -> float:
    """Optimal pinball objective of the unpenalized linear quantile fit."""
    Z = np.column_stack([X, np.ones(len(y))])
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


def lp_gap_rel(samples, pinball_fit, predict) -> float:
    """Mean relative excess of ``pinball_fit`` at lam=0 over the LP optimum."""
    if not samples:
        return 0.0
    gaps = []
    for X, y, alpha in samples:
        model = pinball_fit(X, y, alpha=alpha, lam=0.0)
        fitted = pinball_loss(y - predict(model, X), alpha)
        best = lp_optimum(X, y, alpha)
        gaps.append((fitted - best) / best)
    return float(np.mean(gaps))
