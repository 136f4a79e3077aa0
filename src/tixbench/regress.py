"""In-context linear heads: closed-form ridge and pinball-loss regression.

Both fits standardize feature columns internally (statistics of the context
rows, std floored) and keep the intercept unpenalized; coefficients are
mapped back to the original scale before being returned, so predictions are
invariant to affine rescaling of any feature column.

The ridge head solves the regularized normal equations with a symmetric
positive-definite solve. The quantile head is the linear program of Koenker
& Bassett (1978) plus a ridge term, solved to a tolerance by a primal-dual
predictor-corrector interior-point method (Mehrotra 1992), the Frisch-Newton
method of Portnoy & Koenker (1997): 10-20 Newton steps, each one Cholesky
factorization of a (d+1)x(d+1) matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import STD_FLOOR

DEFAULT_LAMBDA = 1e-3

# pinball_fit's interior-point constants. Fits take 10-20 Newton steps; the
# cap ends one whose residuals stall (lam = 0 on a rank-deficient basis) while
# no iterate can have shrunk below 1e-215, so u/s and v/z stay finite.
_IPM_TOL = 1e-9
_IPM_MAX_STEPS = 50
_IPM_STEP_FRACTION = 0.99995
_IPM_THETA_MIN = 1e-10
_IPM_JITTER = 1e-12


@dataclass(frozen=True)
class LinearModel:
    """Fitted coefficients of a ridge or pinball linear head.

    ``lam`` is the ridge penalty applied to the standardized coefficients;
    ``quantile`` is set for pinball models and None for ridge.
    """

    weights: np.ndarray
    intercept: float
    lam: float
    quantile: float | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.all(np.isfinite(w)) or not np.isfinite(self.intercept):
            raise ValueError("model coefficients must be finite")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.quantile is not None and not (0.0 < self.quantile < 1.0):
            raise ValueError("quantile must lie strictly in (0, 1)")


def _rows(X) -> np.ndarray:
    rows = np.asarray(getattr(X, "rows", X), dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    return rows


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mx = X.mean(axis=0)
    sx = np.maximum(X.std(axis=0), STD_FLOOR)
    return (X - mx) / sx, mx, sx


def ridge_fit(X, y, lam: float = DEFAULT_LAMBDA) -> LinearModel:
    """Ridge regression with unpenalized intercept via normal equations.

    Minimizes ||y - Xw - b||^2 + lam * ||w_std||^2 where w_std are the
    coefficients on internally standardized columns. Falls back to a
    least-squares solve when the regularized system is singular (lam = 0 on
    rank-deficient contexts).
    """
    X = _rows(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 1:
        raise ValueError("empty context")
    if X.shape[0] != len(y):
        raise ValueError("X and y must have matching row counts")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    Xs, mx, sx = _standardize(X)
    my = float(np.mean(y))
    ys = y - my

    A = Xs.T @ Xs + lam * np.eye(X.shape[1])
    rhs = Xs.T @ ys
    try:
        with warnings.catch_warnings():
            # The residual check below decides whether the solve was good
            # enough; scipy's ill-conditioning warning is redundant here.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            ws = scipy.linalg.solve(A, rhs, assume_a="pos")
    except np.linalg.LinAlgError:
        ws = np.linalg.lstsq(A, rhs, rcond=None)[0]
    resid = np.linalg.norm(A @ ws - rhs)
    if resid > 1e-8 * max(np.linalg.norm(rhs), 1.0):
        ws = np.linalg.lstsq(A, rhs, rcond=None)[0]
        resid = np.linalg.norm(A @ ws - rhs)
        if resid > 1e-8 * max(np.linalg.norm(rhs), 1.0):
            raise ArithmeticError("normal equations solve did not converge")

    w = ws / sx
    b = my - float(w @ mx)
    return LinearModel(weights=w, intercept=b, lam=lam)


def predict(model: LinearModel, X) -> np.ndarray:
    """Apply a fitted linear head: X @ w + b."""
    rows = _rows(X)
    if rows.shape[1] != len(model.weights):
        raise ValueError("feature dimension mismatch")
    return rows @ model.weights + model.intercept


def _step_to_boundary(pairs) -> float:
    """Largest t <= 1 that keeps every x + t * dx nonnegative."""
    return min(float(np.min(-x[dx < 0] / dx[dx < 0], initial=1.0)) for x, dx in pairs)


def pinball_fit(X, y, alpha: float, lam: float = DEFAULT_LAMBDA) -> LinearModel:
    """Quantile linear head: minimize sum pinball_alpha(y - Xw - b) + penalty.

    With Xs the standardized columns, ys = (y - mean) / sy and Z = [Xs, 1],
    it solves min alpha 1'u + (1 - alpha) 1'v + (lam / sy) ||w||^2 subject
    to Z (w, b) + u - v = ys and u, v >= 0. In original units that is sum
    pinball + (lam / sy^2) ||w_std||^2: lam ||w_std||^2 on the unit-variance
    targets the imputers pass. Each Newton step factors the normal matrix
    Z' diag(1/theta) Z + 2 (lam / sy) diag(1, .., 1, 0), theta = u/s + v/z
    with s, z the dual slacks, once for both predictor and corrector.

    It stops when the gap u's + v'z and the primal and dual residuals are
    each below 1e-9 relative to their scale, or at a step cap, and returns
    the last iterate either way. For rank-deficient bases, even at lam = 0,
    theta is clamped at 1e-10 and the matrix jittered by 1e-12 times its
    largest diagonal entry, with one refinement solve against the unjittered
    matrix. At lam = 0 the jitter still limits moves along null directions,
    so such a fit can end above the LP optimum.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly in (0, 1)")
    X = _rows(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("empty context: pinball fit needs at least 2 rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs")

    Xs, mx, sx = _standardize(X)
    my = float(np.mean(y))
    sy = max(float(np.std(y)), STD_FLOOR)
    ys = (y - my) / sy
    lam_eff = lam / sy

    n, d = Xs.shape
    Z = np.column_stack([Xs, np.ones(n)])
    pen = np.full(d + 1, 2.0 * lam_eff)
    pen[-1] = 0.0
    # Start at beta = 0 with ys split into u - v (primal feasible) and the dual
    # a = alpha - s = z - (1 - alpha) at 0 (feasible at lam = 0). s and z are
    # updated apart, so neither is lost to cancellation as it nears 0.
    beta = np.zeros(d + 1)
    u = np.maximum(ys, 0.0) + 1.0
    v = np.maximum(-ys, 0.0) + 1.0
    s = np.full(n, alpha)
    z = np.full(n, 1.0 - alpha)

    for _ in range(_IPM_MAX_STEPS):
        rp = ys - Z @ beta - u + v
        a = alpha - s
        rd = Z.T @ a - pen * beta
        gap = float(u @ s + v @ z)
        obj = alpha * u.sum() + (1.0 - alpha) * v.sum() + lam_eff * float(beta[:-1] @ beta[:-1])
        if (
            gap <= _IPM_TOL * (1.0 + obj)
            and np.linalg.norm(rp) <= _IPM_TOL * (1.0 + np.linalg.norm(ys))
            and np.linalg.norm(rd) <= _IPM_TOL * (1.0 + np.linalg.norm(Z) * np.linalg.norm(a))
        ):
            break
        theta = np.maximum(u / s + v / z, _IPM_THETA_MIN)
        N = (Z / theta[:, None]).T @ Z
        N[np.diag_indices(d + 1)] += pen
        fac = scipy.linalg.cho_factor(N + _IPM_JITTER * N.diagonal().max() * np.eye(d + 1))

        def newton(cu: np.ndarray, cv: np.ndarray):
            # The Newton step in which u*s changes by s*cu and v*z by z*cv.
            q = rp - cu + cv
            rhs = rd + Z.T @ (q / theta)
            db = scipy.linalg.cho_solve(fac, rhs)
            db += scipy.linalg.cho_solve(fac, rhs - N @ db)
            da = (q - Z @ db) / theta
            return db, da, cu + u / s * da, cv - v / z * da

        # Predictor: the affine-scaling direction, aiming at u*s = v*z = 0.
        db, da, du, dv = newton(-u, -v)
        t = _step_to_boundary(((u, du), (v, dv), (s, -da), (z, da)))
        mu = gap / (2 * n)
        mu_aff = ((u + t * du) @ (s - t * da) + (v + t * dv) @ (z + t * da)) / (2 * n)
        sigma = (mu_aff / mu) ** 3
        # Corrector: centre at sigma * mu, with Mehrotra's second-order term.
        db, da, du, dv = newton((sigma * mu + du * da) / s - u, (sigma * mu - dv * da) / z - v)
        t = _IPM_STEP_FRACTION * _step_to_boundary(((u, du), (v, dv), (s, -da), (z, da)))
        beta += t * db
        u += t * du
        v += t * dv
        s -= t * da
        z += t * da

    w_orig = beta[:-1] * sy / sx
    b_orig = my + sy * beta[-1] - float(w_orig @ mx)
    return LinearModel(weights=w_orig, intercept=b_orig, lam=lam, quantile=alpha)


def enforce_noncrossing(quantile_predictions: dict[float, np.ndarray]) -> dict[float, np.ndarray]:
    """Monotone rearrangement of per-timestamp quantile predictions.

    Values at each timestamp are sorted so that a higher quantile level never
    predicts below a lower one; already-monotone inputs come back unchanged.
    """
    if not quantile_predictions:
        raise ValueError("need at least one quantile level")
    alphas = sorted(quantile_predictions)
    stacked = np.vstack([np.asarray(quantile_predictions[a], dtype=float) for a in alphas])
    stacked = np.sort(stacked, axis=0)
    return {a: stacked[i] for i, a in enumerate(alphas)}
