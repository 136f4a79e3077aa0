"""In-context linear heads: closed-form ridge and pinball-loss regression.

Both fits standardize the feature columns and the target by the mean and
(floored) std of the context rows and penalize lam * ||c||^2, c the
coefficients of that standardized problem, with the intercept free. Mapped
back to original units, predictions are invariant to affine rescaling of any
feature column, and a fit on k * y + m predicts k times the fit on y, plus m.

The ridge head solves the regularized normal equations from the moments of its
context (Golub & Van Loan, ch. 4 and 6.5; ESL 3.4.1), downdating the Gram of a
whole basis when few rows are hidden; one call fits the heads of many contexts
on one basis with one batched numpy LU solve. The quantile head is the linear
program of Koenker & Bassett (1978) plus a ridge term, solved to a tolerance
by a primal-dual predictor-corrector interior-point method (Mehrotra 1992),
the Frisch-Newton method of Portnoy & Koenker (1997), on the rank-r column
space of the standardized rows (r <= d): 10-20 Newton steps, each two solves
with an (r+1)x(r+1) matrix W'W per level, W the scaled rows. One call fits a
sequence of levels on a shared design: every level that has not yet converged
takes its Newton step in the same vectorized pass, on its row of the stacked
primal (u, v) and dual (s, z) variables, each solve one batched numpy LU
solve of their matrices, and a level leaves the active set at its own
stopping test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STD_FLOOR, floored_std

DEFAULT_LAMBDA = 1e-3

# pinball_fit's interior-point constants. Fits take 10-20 Newton steps; the
# cap ends one whose residuals stall (lam = 0 on a rank-deficient basis) while
# no iterate can have shrunk below 1e-215, so u/s, v/z and the step length's
# -dx/x stay finite.
_IPM_TOL = 1e-9
_IPM_MAX_STEPS = 50
_IPM_STEP_FRACTION = 0.99995
_IPM_THETA_MIN = 1e-10


@dataclass(frozen=True)
class LinearModel:
    """Fitted coefficients of a ridge or pinball linear head.

    One head has (d,) ``weights`` and a float ``intercept``. A multi-level
    head, which ``pinball_fit`` returns for a sequence of levels, has
    (levels, d) weights and (levels,) intercepts, row i the head of level i.
    """

    weights: np.ndarray
    intercept: float | np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(self.intercept)):
            raise ValueError("model coefficients must be finite")


def _rows(X) -> np.ndarray:
    rows = np.asarray(X, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    return rows


def _target(y, rows: int, lam: float) -> np.ndarray:
    """The target of a fit on ``rows`` rows, checked along with its penalty; one row is enough."""
    y = np.asarray(y, dtype=float)
    if not rows:
        raise ValueError("empty context: no rows")
    if rows != len(y):
        raise ValueError("X and y must have matching row counts")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite inputs")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return y


def _inputs(X, y, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The feature rows and target of a fit, checked along with its penalty."""
    if not np.all(np.isfinite(X := _rows(X))):
        raise ValueError("non-finite inputs")
    return X, _target(y, len(X), lam)


def _standardize(X: np.ndarray, y: np.ndarray):
    """The columns of ``X`` and the target ``y``, centred and scaled (std
    floored), and the map from coefficients and intercepts on them back to
    original units."""
    mx, my = X.mean(axis=0), float(np.mean(y))
    sx, sy = np.maximum(X.std(axis=0), STD_FLOOR), floored_std(y)

    def to_original(c: np.ndarray, b):
        w = c * sy / sx
        return w, my + sy * b - w @ mx

    return (X - mx) / sx, (y - my) / sy, to_original


def centred_gram(X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column means c of all rows of ``X``, the centred rows X - c and their Gram (X - c)'(X - c), read-only."""
    centre = (X := _rows(X)).mean(axis=0)
    centred = X - centre
    for a in (moments := (centre, centred, centred.T @ centred)):
        a.flags.writeable = False
    return moments


def _moments(X, y, lam: float, mask, gram, scatter: np.ndarray):
    """The column means of one context's rows and their cross moments with its centred checked targets, and the mean,
    floored std and count of those targets; the scatter of the centred rows goes into ``scatter``."""
    if gram is not None and mask is not None:
        y = _target(y, nv := np.count_nonzero(mask), lam)
        centre, centred, G = gram
        if (n := len(centred)) - nv < nv:
            # Not m = -sum(Xh) / nv: the columns of Xc sum to 0 only up to the rounding of c.
            weights = np.zeros((2, n))
            weights[0, mask], weights[1, mask] = 1.0 / nv, y - (my := np.mean(y))
            m, cross = weights @ centred
            hidden = np.vstack([centred[~mask], np.sqrt(nv) * m])  # so hidden'hidden = Xh'Xh + nv m m'
            np.subtract(G, np.matmul(hidden.T, hidden, out=scatter), out=scatter)
            if not np.any(np.diag(scatter) / nv < 1e-6 * np.diag(G) / n):
                return centre + m, cross, my, floored_std(y), nv
    X, y = _inputs(np.array(X) if mask is None else X[mask], y, lam)
    X -= (mx := X.mean(axis=0))
    np.matmul(X.T, X, out=scatter)
    return mx, (y - (my := np.mean(y))) @ X, my, floored_std(y), len(y)


def ridge_fit(X, y, lam: float = DEFAULT_LAMBDA, *, mask=None, gram=None) -> LinearModel:
    """Ridge regression with unpenalized intercept via normal equations.

    Minimizes ||ys - Xs c||^2 + lam * ||c||^2 on the standardized problem,
    whose centring makes the intercept 0, from the column means, scatter
    and cross moments of the centred context rows. With a boolean ``mask``
    the context is ``X[mask]``, with targets ``y``; T masks, (T, n), fit T
    heads stacked in one head, (T, d) weights and (T,) intercepts, head t on
    the rows ``mask[t]`` with targets ``y[t]``. Given also ``gram``, the
    ``centred_gram`` of all rows of ``X``, a context that hides fewer rows
    Xh (centred) than it shows takes the scatter G - Xh'Xh - nv m m', m its
    centred column means, unless a column's visible variance is below 1e-6
    times its variance over all rows, where that form loses its digits.
    One batched LU solve serves the (T, d, d) stack of systems, built in
    place; a head whose residual is too large (lam = 0 on rank-deficient
    contexts) takes the exact minimum-norm least-squares solution instead,
    and so does every head of a stack in which one system is exactly
    singular.
    """
    stacked, X = np.ndim(mask) == 2, _rows(X)
    masks, targets = (mask, y) if stacked else ([mask], [y])
    heads, d = len(targets), X.shape[1]
    A = np.empty((heads, d, d))
    moments = [_moments(X, target, lam, rows, gram, A[t]) for t, (rows, target) in enumerate(zip(masks, targets))]
    mx, cross, my, sy, counts = (np.array(stat) for stat in zip(*moments))
    sx = np.maximum(np.sqrt(np.diagonal(A, axis1=1, axis2=2) / counts[:, None]), STD_FLOOR)
    A /= sx[:, :, None]
    A /= sx[:, None, :]
    A.reshape(heads, -1)[:, :: d + 1] += lam
    rhs = cross / (sx * sy[:, None])
    tol = 1e-8 * np.maximum(np.linalg.norm(rhs, axis=1), 1.0)
    try:
        ws = np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # One exactly singular system fails the whole stack; NaN sends every head to lstsq.
        ws = np.full_like(rhs, np.nan)
    # "not <=" also sends a NaN residual to the fallback.
    for t in np.flatnonzero(~(np.linalg.norm(np.matmul(A, ws[:, :, None])[:, :, 0] - rhs, axis=1) <= tol)):
        ws[t] = np.linalg.lstsq(A[t], rhs[t], rcond=None)[0]
        if not np.linalg.norm(A[t] @ ws[t] - rhs[t]) <= tol[t]:
            raise np.linalg.LinAlgError("normal equations solve did not converge")

    w = ws * sy[:, None] / sx
    b = my - np.sum(w * mx, axis=1)
    return LinearModel(w, b) if stacked else LinearModel(w[0], float(b[0]))


def predict(model: LinearModel, X) -> np.ndarray:
    """Apply a fitted linear head: X @ W' + b, (n,) for one head and
    (n, levels) for a multi-level head, column i from row i of W."""
    rows = _rows(X)
    if rows.shape[1] != model.weights.shape[-1]:
        raise ValueError("feature dimension mismatch")
    return rows @ model.weights.T + model.intercept


def _step_to_boundary(pairs) -> np.ndarray:
    """Per row, the largest t <= 1 that keeps every x + t * dx nonnegative, for x > 0: 1 / max(1, max(-dx / x))."""
    return 1.0 / np.max([np.max(-dx / x, axis=1) for x, dx in pairs], axis=0, initial=1.0)


def pinball_fit(X, y, alpha, lam: float = DEFAULT_LAMBDA) -> LinearModel:
    """Quantile linear heads: minimize sum pinball_alpha(y - Xw - b) + penalty.

    One level ``alpha`` gives one head; a sequence of levels gives one
    multi-level head, its row i fitted at the i-th level given. With Xs and ys the standardized columns and target, the
    thin SVD Xs = U S V' and r the number of singular values above 1e-12
    times the largest, the fit runs on Z = [U_r S_r, 1]: each level solves
    min alpha 1'u + (1 - alpha) 1'v + lam ||g||^2 subject to
    Z (g, b) + u - v = ys and u, v >= 0, and c = V_r g. Since
    ||V_r g|| = ||g|| and a null-space part of c changes no fit but adds
    to the penalty, this is the fit on [Xs, 1] with penalty lam ||c||^2, as
    in ``ridge_fit``. The levels share Z and step together, each on one row
    of x = (u, v) and of w = (s, z), s and z the dual slacks; each step
    builds, per level, W'W + 2 lam diag(1, .., 1, 0), W = diag(theta)^-1/2 Z
    and theta = u/s + v/z, and the predictor and the corrector each solve
    the stack of these matrices with one batched LU solve. The step length
    keeps every entry of x and w positive.

    A level leaves the active set when its gap u's + v'z and its primal and
    dual residuals are each below 1e-9 relative to their scale, or at a step
    cap. Z has full column rank, as the columns of U_r are orthogonal to the
    constant, and LU with partial pivoting solves the normal matrix as it is;
    theta is clamped at 1e-10. A ``LinAlgError`` from the solve propagates.
    """
    levels = np.atleast_1d(np.asarray(alpha, dtype=float))
    if levels.ndim != 1 or not len(levels) or not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError("alpha must be one level or a sequence of levels, each strictly in (0, 1)")
    X, y = _inputs(X, y, lam)
    Xs, ys, to_original = _standardize(X, y)
    U, S, Vt = np.linalg.svd(Xs, full_matrices=False)
    r = int(np.sum(S > 1e-12 * S.max(initial=0.0)))
    n = len(ys)
    Z = np.column_stack([U[:, :r] * S[:r], np.ones(n)])
    z_norm, ys_norm = np.linalg.norm(Z), np.linalg.norm(ys)
    pen = np.append(np.full(r, 2.0 * lam), 0.0)
    # Row i is level active[i], with x = (u, v) and w = (s, z): beta = 0, u - v = ys (primal feasible),
    # a = alpha - s = z - (1 - alpha) = 0 (dual feasible at lam = 0). s and z stay separate entries of w,
    # so neither is lost to cancellation near 0.
    active, al, beta = np.arange(len(levels)), levels, np.zeros((len(levels), r + 1))
    x = np.tile(np.append(np.maximum(ys, 0.0), np.maximum(-ys, 0.0)) + 1.0, (len(levels), 1))
    w = np.repeat(np.column_stack([al, 1.0 - al]), n, axis=1)
    solved, normal, scaled = np.empty_like(beta), np.empty((len(levels), r + 1, r + 1)), np.empty((n, r + 1))
    diag = np.arange(r + 1)

    for _ in range(_IPM_MAX_STEPS):
        rp = ys - beta @ Z.T - x[:, :n] + x[:, n:]
        a = al[:, None] - w[:, :n]
        rd = a @ Z - pen * beta
        gap = np.sum(x * w, axis=1)
        obj = al * x[:, :n].sum(axis=1) + (1.0 - al) * x[:, n:].sum(axis=1) + lam * np.sum(beta[:, :-1] ** 2, axis=1)
        done = (gap <= _IPM_TOL * (1.0 + obj)) & (np.linalg.norm(rp, axis=1) <= _IPM_TOL * (1.0 + ys_norm))
        done &= np.linalg.norm(rd, axis=1) <= _IPM_TOL * (1.0 + z_norm * np.linalg.norm(a, axis=1))
        if done.any():
            solved[active[done]] = beta[done]
            active, al, beta, x, w, rp, rd, gap = (e[~done] for e in (active, al, beta, x, w, rp, rd, gap))
            if not len(active):
                break
        xw = x / w
        theta = np.maximum(xw[:, :n] + xw[:, n:], _IPM_THETA_MIN)
        N = normal[: len(active)]
        # W' W with W = Z / sqrt(theta): numpy sends the product of a matrix with its own transpose to syrk.
        for Ni, root in zip(N, np.sqrt(theta)):
            np.matmul(np.divide(Z, root[:, None], out=scaled).T, scaled, out=Ni)
        N[:, diag, diag] += pen

        def newton(c: np.ndarray):
            # The Newton step in which x*w changes by w*c: dx = c - (x/w) dw, with dw = (-da, da).
            q = rp - c[:, :n] + c[:, n:]
            db = np.linalg.solve(N, (rd + (q / theta) @ Z)[:, :, None])[:, :, 0]
            dw = np.concatenate((-(da := (q - db @ Z.T) / theta), da), axis=1)
            return db, c - xw * dw, dw

        # Predictor: the affine-scaling direction, aiming at x*w = 0.
        db, dx, dw = newton(-x)
        t = _step_to_boundary(((x, dx), (w, dw)))[:, None]
        mu = gap / (2 * n)
        mu_aff = np.sum((x + t * dx) * (w + t * dw), axis=1) / (2 * n)
        sigma_mu = ((mu_aff / mu) ** 3 * mu)[:, None]
        # Corrector: centre at sigma * mu, with Mehrotra's second-order term.
        db, dx, dw = newton((sigma_mu - dx * dw) / w - x)
        t = _IPM_STEP_FRACTION * _step_to_boundary(((x, dx), (w, dw)))[:, None]
        beta += t * db
        x += t * dx
        w += t * dw
    solved[active] = beta

    w, b = to_original(solved[:, :-1] @ Vt[:r], solved[:, -1])
    return LinearModel(w[0], float(b[0])) if np.ndim(alpha) == 0 else LinearModel(w, b)


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
