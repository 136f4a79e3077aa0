"""In-context linear heads: closed-form ridge and pinball-loss regression.

Both fits standardize the feature columns and the target by the mean and
(floored) std of the context rows and penalize lam * ||c||^2, c the
coefficients of that standardized problem, with the intercept free. Mapped
back to original units, predictions are invariant to affine rescaling of any
feature column, and a fit on k * y + m predicts k times the fit on y, plus m.

The ridge head solves the regularized normal equations with one LAPACK
Cholesky solve. The quantile head is the linear program of Koenker
& Bassett (1978) plus a ridge term, solved to a tolerance by a primal-dual
predictor-corrector interior-point method (Mehrotra 1992), the Frisch-Newton
method of Portnoy & Koenker (1997), on the rank-r column space of the
standardized rows (r <= d): 10-20 Newton steps, each one Cholesky
factorization of an (r+1)x(r+1) matrix per level. One call fits a sequence of
levels on a shared design: every level that has not yet converged takes its
Newton step in the same vectorized pass, and a level leaves the active set at
its own stopping test.
"""

from __future__ import annotations

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

    ``quantile`` is set for pinball models and None for ridge.
    """

    weights: np.ndarray
    intercept: float
    quantile: float | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.all(np.isfinite(w)) or not np.isfinite(self.intercept):
            raise ValueError("model coefficients must be finite")
        if self.quantile is not None and not (0.0 < self.quantile < 1.0):
            raise ValueError("quantile must lie strictly in (0, 1)")


def _rows(X) -> np.ndarray:
    rows = np.asarray(X, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    return rows


def _inputs(X, y, lam: float, min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The feature rows and target of a fit, checked along with its penalty."""
    X, y = _rows(X), np.asarray(y, dtype=float)
    if X.shape[0] < min_rows:
        raise ValueError(f"empty context: fewer than {min_rows} rows")
    if X.shape[0] != len(y):
        raise ValueError("X and y must have matching row counts")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return X, y


def _standardize(X: np.ndarray, y: np.ndarray):
    """The columns of ``X`` and the target ``y``, centred and scaled (std
    floored), and the map from coefficients and intercepts on them back to
    original units."""
    mx, my = X.mean(axis=0), float(np.mean(y))
    sx, sy = np.maximum(X.std(axis=0), STD_FLOOR), max(float(np.std(y)), STD_FLOOR)

    def to_original(c: np.ndarray, b):
        w = c * sy / sx
        return w, my + sy * b - w @ mx

    return (X - mx) / sx, (y - my) / sy, to_original


def ridge_fit(X, y, lam: float = DEFAULT_LAMBDA) -> LinearModel:
    """Ridge regression with unpenalized intercept via normal equations.

    Minimizes ||ys - Xs c||^2 + lam * ||c||^2 on the standardized problem,
    whose centring makes the intercept 0. One Cholesky solve (``dposv``)
    gives c; when the system is not positive definite or its residual is too
    large (lam = 0 on rank-deficient contexts), the exact minimum-norm
    least-squares solution replaces it.
    """
    X, y = _inputs(X, y, lam, min_rows=1)
    Xs, ys, to_original = _standardize(X, y)
    A = Xs.T @ Xs + lam * np.eye(X.shape[1])
    rhs = Xs.T @ ys
    tol = 1e-8 * max(np.linalg.norm(rhs), 1.0)
    _, ws, info = scipy.linalg.lapack.dposv(A, rhs)
    # "not <=" also sends a NaN residual to the fallback.
    if info or not np.linalg.norm(A @ ws - rhs) <= tol:
        ws = np.linalg.lstsq(A, rhs, rcond=None)[0]
        if not np.linalg.norm(A @ ws - rhs) <= tol:
            raise ArithmeticError("normal equations solve did not converge")

    w, b = to_original(ws, 0.0)
    return LinearModel(weights=w, intercept=float(b))


def predict(model: LinearModel, X) -> np.ndarray:
    """Apply a fitted linear head: X @ w + b."""
    rows = _rows(X)
    if rows.shape[1] != len(model.weights):
        raise ValueError("feature dimension mismatch")
    return rows @ model.weights + model.intercept


def _step_to_boundary(pairs) -> np.ndarray:
    """Per row, the largest t <= 1 that keeps every x + t * dx nonnegative."""
    return np.min([np.divide(-x, dx, out=np.ones_like(x), where=dx < 0) for x, dx in pairs], axis=(0, 2), initial=1.0)


def pinball_fit(X, y, alpha, lam: float = DEFAULT_LAMBDA) -> LinearModel | list[LinearModel]:
    """Quantile linear heads: minimize sum pinball_alpha(y - Xw - b) + penalty.

    One level ``alpha`` gives one LinearModel; a sequence gives a list in the
    same order. With Xs and ys the standardized columns and target, the
    thin SVD Xs = U S V' and r the number of singular values above 1e-12
    times the largest, the fit runs on Z = [U_r S_r, 1]: each level solves
    min alpha 1'u + (1 - alpha) 1'v + lam ||g||^2 subject to
    Z (g, b) + u - v = ys and u, v >= 0, and c = V_r g. Since
    ||V_r g|| = ||g|| and a null-space part of c changes no fit but adds
    to the penalty, this is the fit on [Xs, 1] with penalty lam ||c||^2, as
    in ``ridge_fit``. The levels share Z and step together; each step
    factors, per level, Z' diag(1/theta) Z + 2 lam diag(1, .., 1, 0),
    theta = u/s + v/z with s, z the dual slacks, once for both predictor
    and corrector.

    A level leaves the active set when its gap u's + v'z and its primal and
    dual residuals are each below 1e-9 relative to their scale, or at a step
    cap. Z has full column rank, as the columns of U_r are orthogonal to the
    constant; still, theta is clamped at 1e-10 and the matrix jittered by
    1e-12 times its largest diagonal entry, with one refinement solve against
    the unjittered matrix, for the round-off that singular values near the
    rank cut leave in it.
    """
    levels = np.atleast_1d(np.asarray(alpha, dtype=float))
    if levels.ndim != 1 or not len(levels) or not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError("alpha must be one level or a sequence of levels, each strictly in (0, 1)")
    X, y = _inputs(X, y, lam, min_rows=2)
    Xs, ys, to_original = _standardize(X, y)
    U, S, Vt = np.linalg.svd(Xs, full_matrices=False)
    r = int(np.sum(S > 1e-12 * S.max(initial=0.0)))
    n = len(ys)
    Z = np.column_stack([U[:, :r] * S[:r], np.ones(n)])
    z_norm, ys_norm = np.linalg.norm(Z), np.linalg.norm(ys)
    pen = np.append(np.full(r, 2.0 * lam), 0.0)
    # Row i is level active[i]: beta = 0, u - v = ys (primal feasible), a = alpha - s = z - (1 - alpha) = 0
    # (dual feasible at lam = 0). s and z are updated apart, so neither is lost to cancellation near 0.
    active, al, beta = np.arange(len(levels)), levels, np.zeros((len(levels), r + 1))
    u = np.tile(np.maximum(ys, 0.0) + 1.0, (len(levels), 1))
    v = np.tile(np.maximum(-ys, 0.0) + 1.0, (len(levels), 1))
    s, z = np.repeat(al[:, None], n, axis=1), np.repeat(1.0 - al[:, None], n, axis=1)
    solved, normal, weighted = np.empty_like(beta), np.empty((len(levels), r + 1, r + 1)), np.empty((r + 1, n))
    diag = np.arange(r + 1)

    for _ in range(_IPM_MAX_STEPS):
        rp = ys - beta @ Z.T - u + v
        a = al[:, None] - s
        rd = a @ Z - pen * beta
        gap = np.sum(u * s, axis=1) + np.sum(v * z, axis=1)
        obj = al * u.sum(axis=1) + (1.0 - al) * v.sum(axis=1) + lam * np.sum(beta[:, :-1] ** 2, axis=1)
        done = (gap <= _IPM_TOL * (1.0 + obj)) & (np.linalg.norm(rp, axis=1) <= _IPM_TOL * (1.0 + ys_norm))
        done &= np.linalg.norm(rd, axis=1) <= _IPM_TOL * (1.0 + z_norm * np.linalg.norm(a, axis=1))
        if done.any():
            solved[active[done]] = beta[done]
            active, al, beta, u, v, s, z, rp, rd, gap = (x[~done] for x in (active, al, beta, u, v, s, z, rp, rd, gap))
            if not len(active):
                break
        theta = np.maximum(u / s + v / z, _IPM_THETA_MIN)
        N = normal[: len(active)]
        for Ni, th in zip(N, theta):
            np.matmul(np.divide(Z.T, th, out=weighted), Z, out=Ni)
        N[:, diag, diag] += pen + _IPM_JITTER * (N[:, diag, diag] + pen).max(axis=1, keepdims=True)
        # Each Ni is symmetric, so Ni.T is Ni in the Fortran order LAPACK factors in place.
        factors = [scipy.linalg.lapack.dpotrf(Ni.T, overwrite_a=1, clean=0) for Ni in N]
        if any(info for _, info in factors):
            raise np.linalg.LinAlgError("the normal matrix of a level is not positive definite")

        def solve(rhs: np.ndarray) -> np.ndarray:
            return np.array([scipy.linalg.lapack.dpotrs(fac, r)[0] for (fac, _), r in zip(factors, rhs)])

        def newton(cu: np.ndarray, cv: np.ndarray):
            # The Newton step in which u*s changes by s*cu and v*z by z*cv.
            q = rp - cu + cv
            rhs = rd + (q / theta) @ Z
            db = solve(rhs)
            db += solve(rhs - ((db @ Z.T) / theta @ Z + pen * db))
            da = (q - db @ Z.T) / theta
            return db, da, cu + u / s * da, cv - v / z * da

        # Predictor: the affine-scaling direction, aiming at u*s = v*z = 0.
        db, da, du, dv = newton(-u, -v)
        t = _step_to_boundary(((u, du), (v, dv), (s, -da), (z, da)))[:, None]
        mu = gap / (2 * n)
        mu_aff = (np.sum((u + t * du) * (s - t * da), axis=1) + np.sum((v + t * dv) * (z + t * da), axis=1)) / (2 * n)
        sigma_mu = ((mu_aff / mu) ** 3 * mu)[:, None]
        # Corrector: centre at sigma * mu, with Mehrotra's second-order term.
        db, da, du, dv = newton((sigma_mu + du * da) / s - u, (sigma_mu - dv * da) / z - v)
        t = _IPM_STEP_FRACTION * _step_to_boundary(((u, du), (v, dv), (s, -da), (z, da)))[:, None]
        beta += t * db
        u += t * du
        v += t * dv
        s -= t * da
        z += t * da
    solved[active] = beta

    w_orig, b_orig = to_original(solved[:, :-1] @ Vt[:r], solved[:, -1])
    models = [LinearModel(w, float(b), quantile=float(q)) for w, b, q in zip(w_orig, b_orig, levels)]
    return models[0] if np.ndim(alpha) == 0 else models


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
