from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import lsq_linear
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HOURLY, make_segment
from oracles import grid_quantile_intercept, pinball_lp_oracle, pinball_objective, ridge_oracle
from tixbench import regress
from tixbench.masking import DEFAULT_SCENARIOS, apply_scenario
from tixbench.regress import centred_gram
from tixbench import (
    FeatureSpec,
    LinearModel,
    enforce_noncrossing,
    handcrafted_features,
    pinball_fit,
    predict,
    random_fourier_basis,
    ridge_fit,
)


def random_instance(rng, n=20, d=4):
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return X, y


def level_heads(model):
    """The one-level heads in the rows of a multi-level head, in its level order."""
    return [LinearModel(w, float(b)) for w, b in zip(model.weights, model.intercept)]


# Both heads, as fit(X, y, lam): the ridge head, and the pinball head at the median.
BOTH_FITS = [ridge_fit, lambda X, y, lam: pinball_fit(X, y, 0.5, lam)]


@pytest.mark.parametrize("fit", BOTH_FITS, ids=["ridge_fit", "pinball_fit"])
@pytest.mark.parametrize(
    "y, message",
    [(np.ones(2), "X and y must have matching row counts"), (np.array([1.0, np.nan, 2.0]), "non-finite inputs")],
    ids=["row_counts", "nan_target"],
)
def test_bad_target_is_refused_by_its_message(fit, y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit(np.arange(6.0).reshape(3, 2), y, 0.1)


@pytest.mark.parametrize("fit", BOTH_FITS, ids=["ridge_fit", "pinball_fit"])
def test_coefficients_that_overflow_are_refused(fit):
    # The std of a target near 1e300 overflows to inf, and so the weights in original units read inf * 0 = NaN.
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^model coefficients must be finite$"):
        fit(np.arange(6.0)[:, None], 1e300 * np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0]), 0.1)


@pytest.mark.parametrize("d", [1, 5, 129])
@pytest.mark.parametrize("lam", [0.0, 1e-3, 10.0])
def test_both_heads_fit_one_row(d, lam):
    # One context row: its standardized columns are all zero, so each head
    # keeps only its intercept and predicts the one target value anywhere.
    rng = np.random.default_rng(d)
    X, y, X_new = rng.normal(size=(1, d)), np.array([-2.75]), rng.normal(size=(6, d))
    np.testing.assert_allclose(predict(ridge_fit(X, y, lam=lam), X_new), -2.75, rtol=0, atol=1e-12)
    for model in level_heads(pinball_fit(X, y, alpha=[0.1, 0.5, 0.9], lam=lam)):
        np.testing.assert_allclose(predict(model, X_new), -2.75, rtol=0, atol=1e-12)


class TestRidge:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        w_true = np.array([1.0, -2.0, 0.5, 3.0])
        y = X @ w_true + 0.7
        model = ridge_fit(X, y, lam=0.0)
        np.testing.assert_allclose(predict(model, X), y, atol=1e-9)

    def test_infinite_shrinkage_limit(self):
        rng = np.random.default_rng(2)
        X, y = random_instance(rng)
        model = ridge_fit(X, y, lam=1e12)
        assert np.all(np.abs(model.weights) < 1e-6)
        assert model.intercept == pytest.approx(y.mean(), rel=1e-6)

    def test_matches_independent_solve(self):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng, n=20, d=4)
        model = ridge_fit(X, y, lam=0.1)
        w, b = ridge_oracle(X, y, 0.1)
        np.testing.assert_allclose(model.weights, w, rtol=1e-8, atol=1e-10)
        assert model.intercept == pytest.approx(b, rel=1e-8)

    def test_column_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X, y = random_instance(rng, n=40, d=5)
            base = predict(ridge_fit(X, y, lam=0.3), X)
            X2 = X.copy()
            X2[:, 2] = 13.5 * X2[:, 2] - 4.0
            scaled = predict(ridge_fit(X2, y, lam=0.3), X2)
            np.testing.assert_allclose(base, scaled, atol=1e-6)

    def test_local_optimality(self):
        rng = np.random.default_rng(5)
        X, y = random_instance(rng, n=50, d=4)
        lam = 0.2
        model = ridge_fit(X, y, lam=lam)
        mx, sx = X.mean(0), np.maximum(X.std(0), 1e-8)

        def objective(w, b):
            r = y - (X @ w + b)
            ws = w * sx
            return r @ r + lam * (ws @ ws)

        best = objective(model.weights, model.intercept)
        for _ in range(1000):
            dw = rng.normal(scale=1e-3, size=4)
            db = rng.normal(scale=1e-3)
            assert objective(model.weights + dw, model.intercept + db) >= best - 1e-12

    def test_errors(self):
        with pytest.raises(ValueError, match="empty context"):
            ridge_fit(np.empty((0, 3)), np.empty(0), lam=0.1)
        with pytest.raises(ValueError, match="non-finite"):
            ridge_fit(np.array([[np.nan, 1.0]]), np.array([1.0]), lam=0.1)
        with pytest.raises(ValueError):
            ridge_fit(np.ones((3, 2)), np.ones(3), lam=-1.0)

    def test_rank_deficient_unpenalized_system(self):
        # Duplicated and constant columns with lam=0: the least-squares
        # fallback still reproduces a consistent target exactly.
        rng = np.random.default_rng(20)
        X = rng.normal(size=(30, 3))
        X = np.column_stack([X, X[:, 0], np.ones(30)])
        y = 2.0 * X[:, 1] - X[:, 2] + 0.3
        model = ridge_fit(X, y, lam=0.0)
        np.testing.assert_allclose(predict(model, X), y, atol=1e-9)

    @pytest.mark.parametrize("d, lam", [(5, 1e-3), (129, 10.0)])
    def test_singular_solve_falls_back_to_lstsq(self, d, lam, monkeypatch):
        # A solve that reports a singular matrix sends the fit down the
        # lstsq path, which still matches the oracle at benchmark sizes.
        rng = np.random.default_rng(d)
        X, y = context_rows("fourier", d, rng) if d == 5 else random_basis_rows(rng, size=400)
        lstsq_calls = []
        lstsq = np.linalg.lstsq

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        def counted_lstsq(*args, **kwargs):
            lstsq_calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        model = ridge_fit(X, y, lam=lam)
        monkeypatch.undo()
        assert len(lstsq_calls) == 1
        w, b = ridge_oracle(X, y, lam)
        assert np.linalg.norm(model.weights - w) <= 1e-8 * max(np.linalg.norm(w), 1.0)
        assert model.intercept == pytest.approx(b, rel=1e-8, abs=1e-8)


def segment_basis(d, rng):
    """A 28-day hourly basis at a benchmark size (d = 5, 6 stacked or 129)
    and a segment whose values follow a daily cycle with heavy-tailed noise."""
    ticks = np.arange(28 * 24)
    if d == 129:
        X = random_fourier_basis(ticks, FeatureSpec(kind="random_fourier", n_random=64, freq_range=(0.5, 60.0), basis_seed=0))
    else:
        X = handcrafted_features(ticks, HOURLY)
        if d == 6:
            X = np.column_stack([X, np.cumsum(rng.normal(size=len(ticks)))])
    values = np.sin(2 * np.pi * ticks / 24) + 0.3 * rng.standard_t(3, size=len(ticks))
    return X, make_segment(values, np.ones(len(ticks), dtype=bool))


# numpy's own lstsq, for fits that a test's patched lstsq must not see.
NUMPY_LSTSQ = np.linalg.lstsq


def gram_fit(X, segments, lam, monkeypatch):
    """One stacked ridge fit, head t on the visible rows of segment t, through
    the Gram of all rows, and per segment whether it took the downdate rather
    than the moments of its visible rows. Only the downdate reads the Gram's
    G, so a head took it if and only if its weights move when G is scaled by
    1 + 2**-40; 1 + 2**-20 would flip the variance check of the downdate of
    a column constant on its visible rows. The refit
    runs under numpy's own lstsq, so a patched one sees the first fit only."""
    targets = [segment.values[segment.obs_mask] for segment in segments]
    masks = np.array([segment.obs_mask for segment in segments])
    centre, centred, G = gram = centred_gram(X)
    model = ridge_fit(X, targets, lam, mask=masks, gram=gram)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", NUMPY_LSTSQ)
        refit = ridge_fit(X, targets, lam, mask=masks, gram=(centre, centred, G * (1 + 2**-40)))
    assert model.weights.shape == (len(segments), X.shape[1])
    return model, [not np.array_equal(w, moved) for w, moved in zip(model.weights, refit.weights)]


def head(model, t):
    """Row t of a stacked head, as a head of its own."""
    return LinearModel(model.weights[t], model.intercept[t])


def counting_lstsq(monkeypatch):
    """Patch numpy's lstsq to log the matrix of each call; returns the log."""
    calls, lstsq = [], np.linalg.lstsq

    def counted(A, *args, **kwargs):
        calls.append(np.array(A))
        return lstsq(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


class TestRidgeGram:
    @pytest.mark.parametrize("d", [5, 6, 129])
    @pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS, ids=lambda s: s.label)
    @pytest.mark.parametrize("lam", [1e-3, 10.0])
    def test_matches_oracle_under_every_default_scenario(self, d, scenario, lam, monkeypatch):
        # One stacked fit over the four default scenarios of a window; the
        # head of ``scenario`` must match the oracle and its own single fit.
        rng = np.random.default_rng(d)
        X, segment = segment_basis(d, rng)
        window = [apply_scenario(segment, s, seed=d) for s in DEFAULT_SCENARIOS]
        model, downdated = gram_fit(X, window, lam, monkeypatch)
        # Block scenarios hide fewer rows than they leave visible.
        assert downdated == [s.kind == "blocks" for s in DEFAULT_SCENARIOS]
        t = DEFAULT_SCENARIOS.index(scenario)
        mask, values = window[t].obs_mask, window[t].values
        w, b = ridge_oracle(X[mask], values[mask], lam)
        np.testing.assert_allclose(predict(head(model, t), X), X @ w + b, rtol=0, atol=1e-8)
        single = ridge_fit(X, values[mask], lam, mask=mask, gram=centred_gram(X))
        assert np.linalg.norm(model.weights[t] - single.weights) <= 1e-12 * np.linalg.norm(single.weights)
        assert model.intercept[t] == pytest.approx(single.intercept, rel=1e-12, abs=0)

    def test_rank_deficient_basis_at_lam_zero_takes_lstsq_under_the_downdate(self, monkeypatch):
        # periods [24, 24] duplicates two columns, so lam = 0 leaves the
        # normal equations of every head singular.
        ticks = np.arange(28 * 24)
        X = handcrafted_features(ticks, HOURLY, [24.0, 24.0])
        values = np.sin(2 * np.pi * ticks / 24) + 0.3 * np.random.default_rng(3).normal(size=len(ticks))
        segment = make_segment(values, np.ones(len(ticks), dtype=bool))
        window = [apply_scenario(segment, s, seed=3) for s in DEFAULT_SCENARIOS]
        lstsq_calls = counting_lstsq(monkeypatch)
        model, downdated = gram_fit(X, window, 0.0, monkeypatch)
        monkeypatch.undo()
        assert downdated == [s.kind == "blocks" for s in DEFAULT_SCENARIOS]
        assert len(lstsq_calls) == len(window)
        for t, masked in enumerate(window):
            mask = masked.obs_mask
            w, b = ridge_oracle(X[mask], masked.values[mask], 0.0)
            np.testing.assert_allclose(predict(head(model, t), X), X @ w + b, rtol=0, atol=1e-8)

    def test_the_default_scenarios_at_lam_zero_need_no_lstsq(self, monkeypatch):
        # On the d = 5 basis every default scenario leaves a full-rank
        # context, so the one batched solve meets every residual check.
        rng = np.random.default_rng(5)
        X, segment = segment_basis(5, rng)
        window = [apply_scenario(segment, s, seed=5) for s in DEFAULT_SCENARIOS]
        lstsq_calls = counting_lstsq(monkeypatch)
        model, _ = gram_fit(X, window, 0.0, monkeypatch)
        monkeypatch.undo()
        assert lstsq_calls == []
        for t, masked in enumerate(window):
            mask = masked.obs_mask
            w, b = ridge_oracle(X[mask], masked.values[mask], 0.0)
            np.testing.assert_allclose(predict(head(model, t), X), X @ w + b, rtol=0, atol=1e-8)

    def test_a_singular_stack_sends_every_head_to_lstsq(self, monkeypatch):
        # At lam = 0, beside the four default scenarios: a head whose hidden
        # blocks cover every row of an indicator column's day, so the
        # downdate fails the variance check and the column, constant on its
        # context, makes the system singular; and a head that hides more
        # rows than it shows, that day among them, singular as well. One
        # singular system fails the batched solve of the whole stack.
        rng = np.random.default_rng(11)
        X, segment = segment_basis(5, rng)
        day = np.zeros(len(X), dtype=bool)
        day[240:264] = True
        X = np.column_stack([X, day])
        window = [apply_scenario(segment, s, seed=11) for s in DEFAULT_SCENARIOS]
        blocks = ~day
        blocks[480:504] = False
        sparse = window[0].obs_mask & ~day
        window += [make_segment(segment.values, blocks), make_segment(segment.values, sparse)]
        lstsq_calls = counting_lstsq(monkeypatch)
        model, downdated = gram_fit(X, window, 0.0, monkeypatch)
        monkeypatch.undo()
        assert downdated == [False, False, True, True, False, False]
        # One lstsq call per head; the systems of the two singular heads have a zero day column.
        assert len(lstsq_calls) == len(window) == 6
        assert [not np.any(A[-1]) for A in lstsq_calls] == [False] * 4 + [True] * 2
        for t, masked in enumerate(window):
            mask = masked.obs_mask
            w, b = ridge_oracle(X[mask], masked.values[mask], 0.0)
            np.testing.assert_allclose(predict(head(model, t), X), X @ w + b, rtol=0, atol=1e-8)
        assert model.weights[4, -1] == model.weights[5, -1] == 0.0

    def test_gram_without_mask_fits_every_row(self):
        X, segment = segment_basis(129, np.random.default_rng(2))
        with_gram = ridge_fit(X, segment.values, 10.0, gram=centred_gram(X))
        np.testing.assert_array_equal(with_gram.weights, ridge_fit(X, segment.values, 10.0).weights)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("lam", [1e-3, 10.0])
    def test_column_constant_on_the_visible_rows_gets_weight_zero(self, offset, lam, monkeypatch):
        # An indicator of one day that the blocks hide: constant on the
        # visible rows, so its visible variance is 0, but not on all rows.
        rng = np.random.default_rng(11)
        X, segment = segment_basis(5, rng)
        day = np.zeros(len(X), dtype=bool)
        day[240:264] = True
        X = np.column_stack([X, day + offset])
        mask = ~day
        mask[480:504] = False
        masked = make_segment(segment.values, mask)
        model, downdated = gram_fit(X, [masked], lam, monkeypatch)
        assert downdated == [False]
        assert model.weights[0, -1] == 0.0
        direct = ridge_fit(X[mask], segment.values[mask], lam)
        np.testing.assert_allclose(predict(head(model, 0), X), predict(direct, X), rtol=1e-12, atol=0)


class TestPinball:
    def test_median_intercept(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=101)
        X = np.ones((101, 1))
        model = pinball_fit(X, y, alpha=0.5, lam=0.0)
        fitted = predict(model, X)[0]
        assert fitted == pytest.approx(np.median(y), abs=1e-4)

    def test_upper_quantile_intercept(self):
        y = np.arange(1.0, 101.0)
        X = np.ones((100, 1))
        model = pinball_fit(X, y, alpha=0.9, lam=0.0)
        fitted = predict(model, X)[0]
        best, step = grid_quantile_intercept(y, 0.9)
        assert abs(fitted - 90.0) <= 1.0
        assert abs(fitted - best) <= 1.0 + step

    def test_exact_linear_target(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + 4.0
        for alpha in (0.2, 0.5, 0.8):
            model = pinball_fit(X, y, alpha=alpha, lam=0.0)
            np.testing.assert_allclose(predict(model, X), y, atol=1e-4)

    def test_objective_near_lad_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            x = rng.normal(size=25)
            y = 2.0 * x + rng.normal(size=25)
            X = x[:, None]
            model = pinball_fit(X, y, alpha=0.5, lam=0.0)
            achieved = pinball_objective(predict(model, X), y, 0.5)
            # Exhaustive grid over (slope, intercept) pairs.
            slopes = np.linspace(-5, 5, 121)
            intercepts = np.linspace(y.min() - 1, y.max() + 1, 121)
            best = min(
                pinball_objective(s * x + b, y, 0.5) for s in slopes for b in intercepts
            )
            assert achieved <= 1.01 * best + 1e-9

    def test_alpha_validation(self):
        X = np.ones((5, 1))
        y = np.arange(5.0)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                pinball_fit(X, y, alpha=alpha)


def context_rows(kind, d, rng, size=None):
    """Features and target of one in-context fit at benchmark size: ``size``
    (by default 300-450) visible rows of a 28-day hourly segment."""
    ticks = np.arange(28 * 24)
    vis = np.sort(rng.choice(len(ticks), size=size or int(rng.integers(300, 451)), replace=False))
    if kind == "gaussian":
        X = rng.normal(size=(len(ticks), d))
    else:
        # Handcrafted Fourier (d=5), plus a random-walk covariate for d=6.
        X = handcrafted_features(ticks, HOURLY)
        if d == 6:
            X = np.column_stack([X, np.cumsum(rng.normal(size=len(ticks)))])
    daily = np.sin(2 * np.pi * ticks / 24)
    y = daily + 0.3 * rng.standard_t(3, size=len(ticks))
    return X[vis], (y[vis] - y[vis].mean()) / y[vis].std()


def random_basis_rows(rng, size):
    """Random Fourier features (d=129) and target at ``size`` visible rows of a
    28-day hourly segment."""
    ticks = np.arange(28 * 24)
    spec = FeatureSpec(kind="random_fourier", n_random=64, freq_range=(0.5, 60.0), basis_seed=0)
    vis = np.sort(rng.choice(len(ticks), size=size, replace=False))
    X = random_fourier_basis(ticks, spec)[vis]
    return X, np.sin(2 * np.pi * vis / 24) + 0.3 * rng.normal(size=len(vis))


def penalized_objective(X, y, alpha, lam, w, b):
    """The objective pinball_fit documents, in original units."""
    return pinball_objective(X @ w + b, y, alpha) + lam / y.std() * float(np.sum((w * X.std(axis=0)) ** 2))


def dual_bound(X, y, alpha, lam, model):
    """A lower bound on the optimum of ``penalized_objective``.

    Every g in [alpha - 1, alpha]^n with 1'g = 0 gives one (weak duality):
    y'g - ||X'g / sx||^2 / (4 lam / sy). This takes the g of the subgradient
    conditions at the fit: alpha above it, alpha - 1 below it, and on it
    (within 1e-3 std(y)) the box-bounded least-squares solution of
    Z'g = (2 lam / sy) (sx^2 w, 0), then moves g inside the box until 1'g = 0.
    A residual put on the wrong side only loosens the bound.
    """
    lam_y, sx = lam / y.std(), X.std(axis=0)
    r = y - predict(model, X)
    on_fit = np.abs(r) < 1e-3 * y.std()
    g = np.where(r > 0, alpha, alpha - 1.0)
    Z = np.column_stack([X, np.ones(len(y))])
    target = np.append(2.0 * lam_y * sx**2 * model.weights, 0.0) - Z[~on_fit].T @ g[~on_fit]
    g[on_fit] = lsq_linear(Z[on_fit].T, target, bounds=(alpha - 1.0, alpha), method="bvls").x
    excess = g.sum()
    room = g - (alpha - 1.0) if excess > 0 else alpha - g
    g -= excess * room / room.sum()
    assert np.all((g >= alpha - 1.0) & (g <= alpha)) and abs(g.sum()) <= 1e-12 * len(y)
    return float(y @ g - np.sum((X.T @ g / sx) ** 2) / (4.0 * lam_y))


class TestPinballLP:
    @pytest.mark.parametrize(
        "kind,d", [("gaussian", 1), ("gaussian", 5), ("gaussian", 40), ("fourier", 5), ("fourier", 6)]
    )
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_matches_lp_optimum(self, kind, d, alpha):
        rng = np.random.default_rng([d, int(alpha * 10), kind == "fourier"])
        X, y = context_rows(kind, d, rng)
        model = pinball_fit(X, y, alpha=alpha, lam=0.0)
        best = pinball_lp_oracle(X, y, alpha)
        gap = (pinball_objective(predict(model, X), y, alpha) - best) / best
        assert abs(gap) < 1e-6

    def test_penalized_fit_meets_optimality_conditions(self):
        # Subgradient conditions of sum pinball + (lam / sy) ||w_std||^2 on
        # a target whose std sy is far from 1: Z'g = (2 lam / sy) (sx^2 w, 0)
        # with g = alpha above the fit, alpha - 1 below it and any value in
        # [alpha - 1, alpha] on it.
        rng = np.random.default_rng(55)
        X, y = context_rows("fourier", 6, rng)
        y = 3.0 * y + 1.0
        alpha, lam = 0.3, 2.0
        model = pinball_fit(X, y, alpha=alpha, lam=lam)
        r = y - predict(model, X)
        on_fit = np.abs(r) < 1e-6 * y.std()
        Z = np.column_stack([X, np.ones(len(y))])
        target = np.append(2.0 * lam / y.std() * X.std(axis=0) ** 2 * model.weights, 0.0)
        target -= Z[~on_fit].T @ np.where(r[~on_fit] > 0, alpha, alpha - 1.0)
        g_on = np.linalg.lstsq(Z[on_fit].T, target, rcond=None)[0]
        assert np.linalg.norm(Z[on_fit].T @ g_on - target) < 1e-6 * len(y)
        assert np.all((g_on > alpha - 1.0 - 1e-6) & (g_on < alpha + 1e-6))

    @pytest.mark.parametrize("n", [202, 336, 576, 624])
    def test_random_basis_fits_are_certified_optimal(self, n):
        # The quantile workload's own fits: d=129, lam=10, the nine default
        # levels, at its context sizes. Each objective lies within 1e-6 of a
        # lower bound on the optimum (1e-10 to 2e-7 measured over 52 such
        # instances).
        rng = np.random.default_rng([129, n])
        X, y = random_basis_rows(rng, n)
        lam = 10.0
        for alpha, model in zip(NINE_LEVELS, level_heads(pinball_fit(X, y, alpha=NINE_LEVELS, lam=lam))):
            primal = penalized_objective(X, y, alpha, lam, model.weights, model.intercept)
            assert primal - dual_bound(X, y, alpha, lam, model) <= 1e-6 * primal

    def test_duplicated_and_constant_columns_match_lp_optimum(self):
        # Exact rank deficiency at lam=0: a copy of one column and a constant
        # column change neither the LP nor its optimum.
        rng = np.random.default_rng(7)
        X, y = context_rows("fourier", 5, rng)
        padded = np.column_stack([X, X[:, 2], np.full(len(y), 4.0)])
        for alpha in (0.1, 0.5, 0.9):
            model = pinball_fit(padded, y, alpha=alpha, lam=0.0)
            best = pinball_lp_oracle(X, y, alpha)
            assert abs(pinball_objective(predict(model, padded), y, alpha) - best) <= 1e-9 * best

    def test_penalized_fit_is_scale_equivariant(self):
        # On a target whose std is far from 1, a fit on c * y predicts c times
        # the fit on y at every level, as ridge_fit does.
        rng = np.random.default_rng(56)
        X, y = context_rows("fourier", 6, rng)
        y = 3.0 * y + 1.0
        c, levels = 12.0, (0.2, 0.7)
        base, scaled = pinball_fit(X, y, alpha=levels, lam=2.0), pinball_fit(X, c * y, alpha=levels, lam=2.0)
        for base_head, scaled_head in zip(level_heads(base), level_heads(scaled)):
            gap = np.abs(predict(scaled_head, X) - c * predict(base_head, X))
            assert gap.max() <= 1e-9 * c * y.std()

    def test_random_basis_ridge_penalty_is_optimal(self):
        # d=129, numerically rank-deficient; lam=10 as the quantile imputers
        # use it on this basis.
        rng = np.random.default_rng(129)
        X, y = random_basis_rows(rng, 400)
        lam = 10.0

        def objective(w, b):
            return penalized_objective(X, y, 0.8, lam, w, b)

        model = pinball_fit(X, y, alpha=0.8, lam=lam)
        best = objective(model.weights, model.intercept)
        tol = 1e-9 * best
        ridge = ridge_fit(X, y, lam)
        assert best <= objective(ridge.weights, ridge.intercept) + tol
        for _ in range(50):
            dw = rng.normal(scale=1e-3, size=X.shape[1])
            db = rng.normal(scale=1e-3)
            assert best <= objective(model.weights + dw, model.intercept + db) + tol

        unpenalized = pinball_fit(X, y, alpha=0.8, lam=0.0)
        assert np.all(np.isfinite(predict(unpenalized, X)))


NINE_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class TestPinballLevels:
    """One pinball_fit call with a sequence of levels, at the sizes the
    quantile imputers use: about 600 visible rows of a 28-day hourly segment."""

    @pytest.mark.parametrize("d", [5, 6])
    def test_every_level_matches_lp_optimum(self, d):
        rng = np.random.default_rng([d, 600])
        X, y = context_rows("fourier", d, rng, size=600)
        models = level_heads(pinball_fit(X, y, alpha=NINE_LEVELS, lam=0.0))
        for alpha, model in zip(NINE_LEVELS, models):
            best = pinball_lp_oracle(X, y, alpha)
            assert abs(pinball_objective(predict(model, X), y, alpha) - best) / best < 1e-6

    def test_random_basis_levels_match_one_level_fits(self):
        rng = np.random.default_rng(600)
        X, y = random_basis_rows(rng, 600)
        lam = 10.0
        for alpha, model in zip(NINE_LEVELS, level_heads(pinball_fit(X, y, alpha=NINE_LEVELS, lam=lam))):
            single = pinball_fit(X, y, alpha=alpha, lam=lam)
            ours = penalized_objective(X, y, alpha, lam, model.weights, model.intercept)
            alone = penalized_objective(X, y, alpha, lam, single.weights, single.intercept)
            assert abs(ours - alone) <= 1e-9 * alone

    def test_models_follow_the_given_order(self):
        rng = np.random.default_rng(3)
        X, y = context_rows("fourier", 5, rng)
        levels = (0.9, 0.1, 0.5)
        model = pinball_fit(X, y, alpha=levels, lam=1.0)
        assert model.weights.shape == (3, X.shape[1]) and model.intercept.shape == (3,)
        for alpha, row in zip(levels, level_heads(model)):
            single = pinball_fit(X, y, alpha=alpha, lam=1.0)
            np.testing.assert_allclose(predict(row, X), predict(single, X), atol=1e-6)
        single = pinball_fit(X, y, alpha=0.5)
        assert single.weights.shape == (X.shape[1],) and isinstance(single.intercept, float)
        assert pinball_fit(X, y, alpha=[0.5]).weights.shape == (1, X.shape[1])

    def test_level_validation(self):
        X, y = np.ones((5, 1)), np.arange(5.0)
        for levels in ([], [0.5, 1.0], [[0.5]]):
            with pytest.raises(ValueError):
                pinball_fit(X, y, alpha=levels)

    def test_factorization_failure_raises(self, monkeypatch):
        solve = np.linalg.solve

        def singular(a, b):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular)
        rng = np.random.default_rng(4)
        X, y = context_rows("fourier", 5, rng)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            pinball_fit(X, y, alpha=NINE_LEVELS, lam=0.0)


class TestPinballSteps:
    """The interior-point step length, and the positive iterates it relies on."""

    def test_step_to_boundary_matches_masked_reference(self):
        # Reference: min(1, min over dx < 0 of -x / dx). Rows 0-5 have no
        # negative dx, row 6 is all zeros; about a fifth of the rest is 0.
        rng = np.random.default_rng(12)
        scale = 10.0 ** rng.integers(-200, 200, size=(60, 1))
        x = rng.uniform(0.01, 1.0, size=(60, 80)) * scale
        dx = rng.normal(size=x.shape) * scale * 10.0 ** rng.integers(-3, 4, size=(60, 1))
        dx[rng.random(x.shape) < 0.2] = 0.0
        dx[:6], dx[6] = np.abs(dx[:6]), 0.0
        pairs = ((x[:, :40], dx[:, :40]), (x[:, 40:], dx[:, 40:]))
        t = regress._step_to_boundary(pairs)
        masked = [np.divide(-a, da, out=np.ones_like(a), where=da < 0) for a, da in pairs]
        ref = np.min(masked, axis=(0, 2), initial=1.0)
        assert np.all(t[:7] == 1.0) and np.any(ref < 1e-3) and np.any((ref > 0.1) & (ref < 1.0))
        assert np.all(np.abs(t - ref) <= 2 * np.spacing(ref))

    @pytest.mark.parametrize("size", [202, 400, 624])
    def test_fit_on_the_step_cap_keeps_iterates_positive(self, size, monkeypatch):
        # With no tolerance every level runs to the cap. An iterate at 0
        # would divide by 0 in theta or in the step length.
        steps, step = [], regress._step_to_boundary
        monkeypatch.setattr(regress, "_step_to_boundary", lambda pairs: steps.append(None) or step(pairs))
        monkeypatch.setattr(regress, "_IPM_TOL", 0.0)
        X, y = random_basis_rows(np.random.default_rng(size), size)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            model = pinball_fit(X, y, alpha=NINE_LEVELS, lam=0.0)
        assert len(steps) == 2 * regress._IPM_MAX_STEPS
        assert np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.intercept))

    @pytest.mark.parametrize("size,alpha", [(202, 0.1), (400, 0.5), (624, 0.9)])
    def test_unpenalized_random_basis_fit_converges_before_the_cap(self, size, alpha, monkeypatch):
        # lam = 0 on the d=129 random basis, numerically rank-deficient: every
        # level meets its stopping test, and the checked level's objective is
        # no worse than HiGHS's (2-9 % below it, measured on these rows).
        steps, step = [], regress._step_to_boundary
        monkeypatch.setattr(regress, "_step_to_boundary", lambda pairs: steps.append(None) or step(pairs))
        X, y = random_basis_rows(np.random.default_rng(size), size)
        model = pinball_fit(X, y, alpha=NINE_LEVELS, lam=0.0)
        assert len(steps) < 2 * regress._IPM_MAX_STEPS
        head = level_heads(model)[NINE_LEVELS.index(alpha)]
        assert pinball_objective(predict(head, X), y, alpha) <= pinball_lp_oracle(X, y, alpha) * (1.0 + 1e-9)


class TestPredict:
    def test_constant_model(self):
        model = LinearModel(weights=np.zeros(3), intercept=2.5)
        out = predict(model, np.random.default_rng(0).normal(size=(7, 3)))
        np.testing.assert_array_equal(out, np.full(7, 2.5))

    def test_identity_echo(self):
        model = LinearModel(weights=np.array([1.0]), intercept=0.0)
        x = np.linspace(-3, 3, 11)[:, None]
        np.testing.assert_array_equal(predict(model, x), x[:, 0])

    def test_deterministic_reapplication(self):
        rng = np.random.default_rng(9)
        X, y = random_instance(rng)
        model = ridge_fit(X, y, lam=0.05)
        a = predict(model, X)
        b = predict(model, X)
        assert np.array_equal(a, b)

    def test_multi_level_head_predicts_a_column_per_row(self):
        rng = np.random.default_rng(11)
        model = LinearModel(weights=rng.normal(size=(2, 3)), intercept=np.array([0.5, -1.0]))
        X = rng.normal(size=(7, 3))
        out = predict(model, X)
        assert out.shape == (7, 2)
        for i, head in enumerate(level_heads(model)):
            np.testing.assert_allclose(out[:, i], predict(head, X), rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros(3), intercept=0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict(model, np.ones((4, 2)))

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=25)
    def test_linearity(self, a, b):
        rng = np.random.default_rng(10)
        model = LinearModel(weights=rng.normal(size=3), intercept=1.5)
        X1 = rng.normal(size=(6, 3))
        X2 = rng.normal(size=(6, 3))
        lhs = predict(model, a * X1 + b * X2)
        rhs = a * predict(model, X1) + b * predict(model, X2) + (1 - a - b) * model.intercept
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestNoncrossing:
    def test_single_alpha_identity(self):
        v = np.array([3.0, 1.0, 2.0])
        out = enforce_noncrossing({0.5: v})
        assert np.array_equal(out[0.5], v)

    def test_sorts_crossed_values(self):
        out = enforce_noncrossing(
            {0.1: np.array([2.0]), 0.5: np.array([1.0]), 0.9: np.array([3.0])}
        )
        assert [out[a][0] for a in (0.1, 0.5, 0.9)] == [1.0, 2.0, 3.0]

    def test_monotone_input_unchanged(self):
        preds = {0.1: np.array([1.0, 5.0]), 0.9: np.array([2.0, 5.0])}
        out = enforce_noncrossing(preds)
        assert np.array_equal(out[0.1], preds[0.1])
        assert np.array_equal(out[0.9], preds[0.9])

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=50)
    def test_output_monotone(self, vals):
        out = enforce_noncrossing({a: np.array([v]) for a, v in zip((0.25, 0.5, 0.75), vals)})
        assert out[0.25][0] <= out[0.5][0] <= out[0.75][0]
