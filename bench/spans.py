"""Span tracing of one benchmark pass, from outside the library.

The tracer replaces module-level names with wrappers that record a span
(id, parent, name, task, start, end) per call. A name is patched where it is
looked up: ``harness`` imports ``apply_scenario``, ``make_imputer``,
``znorm_mae``, ``wql`` and friends by name, and ``imputers`` imports the
``features`` and ``regress`` functions by name, so a wrapper placed on
``tixbench.regress.ridge_fit`` itself would never be called.

Spans stay in memory until the benchmark writes them out. The traced pass
is serial, so every span is recorded in this process.

A layer's self time is its span's duration minus the part of that interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# ridge_fit and pinball_fit calls with more feature columns than this count
# as large-d (the random basis, d=129); the handcrafted basis has d=5 or 6.
LARGE_D = 16
# Pinball fits kept for the LP oracle: the first imputation at each of these
# feature dimensions, at these levels.
ORACLE_DIMS = (5, 129)
ORACLE_LEVELS = (0.1, 0.5, 0.9)


def _dims(X) -> tuple[int, int]:
    rows = np.asarray(getattr(X, "rows", X))
    return rows.shape[0], (rows.shape[1] if rows.ndim == 2 else 1)


class Tracer:
    """Records spans for the patched functions of one serial pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.task: str | None = None
        self.oracle_samples: dict[int, list] = {d: [] for d in ORACLE_DIMS}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None, task_of=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``note(result, *args, **kwargs)`` returns extra span fields;
        ``task_of(*args)`` marks the wrapped function as a task boundary.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if task_of is not None:
                tracer.task = task_of(*args)
            span = {
                "id": len(tracer.spans),
                "parent": tracer.stack[-1] if tracer.stack else None,
                "name": name,
                "task": tracer.task,
            }
            # Reserve the span's slot now, so ids follow call order.
            tracer.spans.append(span)
            tracer.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
                if task_of is not None:
                    tracer.task = None
            if note is not None:
                # Fields of failed calls stay unset; layer_metrics reads them
                # with defaults.
                span.update(note(result, *args, **kwargs))
            return result

        return traced

    def patch(self, module, attr: str, name: str, **kwargs) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **kwargs))

    def install(self, harness, imputers, imputer_names: dict[tuple[str, str], str]) -> None:
        """Patch every layer boundary that one pass goes through.

        ``imputer_names`` maps (registry id, JSON of params) to the configured
        imputer name, which names the imputer's span.
        """
        self.patch(harness, "run", "harness.run")
        self.patch(harness, "report", "harness.report", note=_note_report)
        self.patch(harness, "_score_task", "harness.score_task", task_of=_task_id)
        self.patch(harness, "load_dataset", "harness.load_dataset")
        self.patch(harness, "ingest_csv", "harness.ingest_csv", note=lambda ts, *a, **k: {"rows": len(ts)})
        self.patch(harness, "synth_generate", "synth.generate")
        self.patch(harness, "chrono_split", "core.chrono_split")
        self.patch(harness, "extract_segments", "core.extract_segments", note=lambda segs, *a, **k: {"segments": len(segs)})
        self.patch(harness, "apply_scenario", "masking.apply_scenario")
        self.patch(harness, "znorm_mae", "metrics.znorm_mae")
        self.patch(harness, "wql", "metrics.wql")
        self.patch(harness, "aggregate", "metrics.aggregate")
        self.patch(harness, "average_ranks", "metrics.average_ranks")
        for fname in ("handcrafted_features", "random_fourier_basis"):
            self.patch(imputers, fname, f"features.{fname}", note=_note_basis)
        self.patch(imputers, "stack_covariates", "features.stack_covariates")
        self.patch(imputers, "ridge_fit", "regress.ridge_fit", note=_note_fit)
        self.patch(imputers, "pinball_fit", "regress.pinball_fit", note=self._note_pinball)
        self.patch(imputers, "predict", "regress.predict")
        self.patch(imputers, "enforce_noncrossing", "regress.enforce_noncrossing", note=_note_noncrossing)

        make_imputer = harness.make_imputer
        self._patched.append((harness, "make_imputer", make_imputer))

        def traced_make_imputer(imputer_id, **params):
            key = (imputer_id, json.dumps(params, sort_keys=True, default=str))
            return self.wrap(f"imputers.{imputer_names.get(key, imputer_id)}", make_imputer(imputer_id, **params))

        harness.make_imputer = traced_make_imputer

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _note_pinball(self, model, X, y, alpha, **kwargs) -> dict:
        n, d = _dims(X)
        kept = self.oracle_samples.get(d)
        if kept is not None and len(kept) < len(ORACLE_LEVELS) and alpha in ORACLE_LEVELS:
            kept.append((np.array(getattr(X, "rows", X), dtype=float), np.array(y, dtype=float), alpha))
        return {"n": n, "d": d}


def _task_id(args) -> str:
    ds_id, segment, scenario = args[:3]
    return f"{ds_id}/{segment.start}/{scenario.label}"


def _note_fit(model, X, y, *args, **kwargs) -> dict:
    n, d = _dims(X)
    return {"n": n, "d": d}


def _note_basis(fm, ticks, *args, **kwargs) -> dict:
    # The basis depends on the segment length and the remaining arguments:
    # (freq, periods) for handcrafted_features, (spec,) for random_fourier_basis.
    return {"basis": repr((len(ticks), *args))}


def _note_noncrossing(result, raw) -> dict:
    changed = any(not np.array_equal(np.asarray(raw[a], dtype=float), result[a]) for a in raw)
    return {"changed": changed}


def _note_report(paths, *args, **kwargs) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in paths.values())}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Map span id to self time: its duration minus its children's.

    The traced pass runs in one thread, so child spans never overlap.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Every imputer name configured by some workload; each workload reports all
# of them, with zeros for the ones it does not run.
IMPUTER_NAMES = (
    "linear",
    "locf",
    "seasonal_naive",
    "tix_fourier",
    "tix_fourier_cov",
    "tix_random_basis",
    "tix_fourier_q",
    "tix_fourier_q_cov",
    "tix_random_basis_q",
)


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer self seconds and counts of one traced pass.

    ``.s`` and ``.self_s`` are summed self seconds; layers that a workload
    never calls report zero.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def secs(name, keep=lambda s: True):
        return sum(own[s["id"]] for s in by_name[name] if keep(s))

    def calls(name, keep=lambda s: True):
        return sum(1 for s in by_name[name] if keep(s))

    def large(s):
        return s.get("d", 0) > LARGE_D

    def small(s):
        return s.get("d", 0) <= LARGE_D

    ridge = by_name["regress.ridge_fit"]
    noncrossing = by_name["regress.enforce_noncrossing"]
    m = {
        "regress.ridge_fit.large_d.s": (secs("regress.ridge_fit", large), "s"),
        "regress.ridge_fit.large_d.calls": (calls("regress.ridge_fit", large), "count"),
        "regress.ridge_fit.small_d.s": (secs("regress.ridge_fit", small), "s"),
        "regress.ridge_fit.small_d.calls": (calls("regress.ridge_fit", small), "count"),
        # Normal equations: Gram matrix (2nd^2) plus Cholesky solve (d^3/3).
        "regress.ridge_fit.flop_computed": (
            sum(2 * s.get("n", 0) * s.get("d", 0) ** 2 + s.get("d", 0) ** 3 // 3 for s in ridge),
            "flop",
        ),
    }
    for basis in ("random_fourier_basis", "handcrafted_features"):
        name = f"features.{basis}"
        m[f"{name}.s"] = (secs(name), "s")
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.distinct"] = (len({s["basis"] for s in by_name[name] if "basis" in s}), "count")
    m["features.stack_covariates.s"] = (secs("features.stack_covariates"), "s")
    m["regress.pinball_fit.s"] = (secs("regress.pinball_fit"), "s")
    m["regress.pinball_fit.calls"] = (calls("regress.pinball_fit"), "count")
    m["regress.pinball_fit.large_d.s"] = (secs("regress.pinball_fit", large), "s")
    m["regress.enforce_noncrossing.s"] = (secs("regress.enforce_noncrossing"), "s")
    m["regress.enforce_noncrossing.changed_ratio"] = (
        sum(s.get("changed", False) for s in noncrossing) / len(noncrossing) if noncrossing else 0.0,
        "ratio",
    )
    m["regress.predict.s"] = (secs("regress.predict"), "s")
    m["harness.load_dataset.s"] = (secs("harness.load_dataset"), "s")
    m["harness.ingest_csv.s"] = (secs("harness.ingest_csv"), "s")
    m["harness.ingest_csv.rows"] = (sum(s.get("rows", 0) for s in by_name["harness.ingest_csv"]), "count")
    m["synth.generate.s"] = (secs("synth.generate"), "s")
    for imputer in IMPUTER_NAMES:
        m[f"imputers.{imputer}.self_s"] = (secs(f"imputers.{imputer}"), "s")
        m[f"imputers.{imputer}.calls"] = (calls(f"imputers.{imputer}"), "count")
    m["core.chrono_split.s"] = (secs("core.chrono_split"), "s")
    m["core.extract_segments.s"] = (secs("core.extract_segments"), "s")
    m["core.segments"] = (sum(s.get("segments", 0) for s in by_name["core.extract_segments"]), "count")
    m["masking.apply_scenario.s"] = (secs("masking.apply_scenario"), "s")
    m["masking.tasks"] = (calls("masking.apply_scenario"), "count")
    m["masking.tasks_infeasible"] = (
        calls("masking.apply_scenario", lambda s: "infeasible" in s.get("error", "")),
        "count",
    )
    for name in ("znorm_mae", "wql", "aggregate", "average_ranks"):
        m[f"metrics.{name}.s"] = (secs(f"metrics.{name}"), "s")
    m["harness.report.s"] = (secs("harness.report"), "s")
    m["harness.report.bytes"] = (sum(s.get("bytes", 0) for s in by_name["harness.report"]), "bytes")
    m["harness.run.self_s"] = (secs("harness.run"), "s")
    m["harness.score_task.self_s"] = (secs("harness.score_task"), "s")
    return m
