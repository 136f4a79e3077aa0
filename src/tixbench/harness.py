"""Benchmark harness: config files, CSV ingestion, the run loop, reports.

A run walks every configured dataset through a chronological split, slides
four-week windows over the test slice, applies each missingness scenario
with a seed derived by stable-hashing the run seed with the dataset id,
segment start and scenario label (so parallel and serial execution agree),
scores every imputer, and writes machine-readable and human-readable
reports. Everything downstream of the config is deterministic; the only
volatile report field is the wall-clock timestamp, which is excluded from
the content digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core import FrequencySpec, TimeSeries, _check_window, _split_fractions, chrono_split, extract_segments
from .core import floored_std
from .imputers import make_imputer
from .masking import DEFAULT_SCENARIOS, InfeasibleScenario, Scenario, apply_scenario
from .metrics import ScoreRecord, aggregate, average_ranks, wql, znorm_mae
from .synth import Component, SynthSpec
from .synth import generate as synth_generate

RANDOM_BASIS_CAVEAT = (
    "tix_random_basis uses a seeded random Fourier basis as a surrogate for a "
    "pretrained representation; its scores characterize the surrogate only."
)
NORMALIZATION_NOTE = (
    "z-normalization uses per-segment visible-context statistics (held-out values never enter)."
)
CONTEXT_NOTE = "regression context = all observed points of the segment being imputed."


class IngestionError(RuntimeError):
    """Raised when one or more datasets fail to load; carries a per-dataset summary."""

    def __init__(self, failures: dict[str, str]):
        self.failures = dict(failures)
        lines = "; ".join(f"{k}: {v}" for k, v in sorted(failures.items()))
        super().__init__(f"dataset ingestion failed ({lines})")


def stable_seed(*parts) -> int:
    """64-bit seed from a stable hash of the identifying parts."""
    payload = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset entry: either a CSV path or an inline synthetic spec."""

    id: str
    path: str | None = None
    synth: SynthSpec | None = None
    timestamp_column: str = "timestamp"
    value_column: str = "value"
    covariate_columns: tuple[str, ...] = ()
    steps_per_day: int = 0
    seasonal_period: int = 0
    min_std_filter: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        object.__setattr__(self, "min_std_filter", float(self.min_std_filter))
        if (self.path is None) == (self.synth is None):
            raise ValueError(f"dataset {self.id!r} needs exactly one of path or synth")
        if self.path is not None:
            try:
                freq = FrequencySpec(self.steps_per_day, seasonal_period=self.seasonal_period)
            except ValueError as err:
                raise ValueError(f"dataset {self.id!r}: {err}") from None
            # The coerced counts, so that 24.0 and 24 digest alike.
            object.__setattr__(self, "steps_per_day", freq.steps_per_day)
            object.__setattr__(self, "seasonal_period", freq.seasonal_period)


@dataclass(frozen=True)
class ImputerSpec:
    """Registry id plus parameter overrides; ``name`` keys the report columns."""

    id: str
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name or self.id))
        # Building the imputer once checks the id and every param key.
        make_imputer(self.id, **self.params)


@dataclass(frozen=True)
class RunConfig:
    datasets: tuple[DatasetSpec, ...]
    imputers: tuple[ImputerSpec, ...]
    scenarios: tuple[Scenario, ...] = DEFAULT_SCENARIOS
    seed: int = 0
    splits: tuple[float, float, float] = (0.7, 0.1, 0.2)
    segment_len_days: int = 28
    stride_days: tuple[float, float] = (0.5, 2.0)
    output_dir: str = "out"
    rank_metric: str = "mae"

    def __post_init__(self) -> None:
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "imputers", tuple(self.imputers))
        object.__setattr__(self, "scenarios", tuple(self.scenarios) or DEFAULT_SCENARIOS)
        object.__setattr__(self, "stride_days", tuple(float(d) for d in self.stride_days))
        object.__setattr__(self, "splits", _split_fractions(self.splits))
        try:
            _check_window(self.segment_len_days, self.stride_days)
        except ValueError as err:
            raise ValueError(f"segment.{err}") from None
        object.__setattr__(self, "segment_len_days", int(self.segment_len_days))
        if not self.datasets:
            raise ValueError("config needs at least one dataset")
        if not self.imputers:
            raise ValueError("config needs at least one imputer")
        labels = [s.label for s in self.scenarios]
        if len(set(labels)) != len(labels):
            raise ValueError("scenario labels must be unique")
        names = [im.name for im in self.imputers]
        if len(set(names)) != len(names):
            raise ValueError("imputer names must be unique")
        ids = [d.id for d in self.datasets]
        if len(set(ids)) != len(ids):
            raise ValueError("dataset ids must be unique")
        if self.rank_metric not in ("mae", "wql"):
            raise ValueError("rank_metric must be 'mae' or 'wql'")


def _mapping(raw, where: str) -> dict:
    """A copy of ``raw``, which must be a mapping."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected a mapping, got {raw!r}")
    return dict(raw)


def _strict(cls, raw, where: str, **resolved):
    """Build ``cls`` from the mapping ``raw`` plus the fields in ``resolved``.

    Every key of ``raw`` must name a field of ``cls`` that ``resolved`` does
    not set, and every omitted field takes the default that ``cls`` declares.
    An unknown key or a missing field is a ``ValueError`` that says where it
    was.
    """
    raw = _mapping(raw, where)
    if "id" in raw:
        where = f"{where} {raw['id']!r}"
    unknown = [k for k in raw if k not in {f.name for f in fields(cls)} - resolved.keys()]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    try:
        return cls(**raw, **resolved)
    except TypeError as err:
        raise ValueError(f"{where}: {err}") from None


def synth_from_dict(raw: dict) -> SynthSpec:
    """Build a synthetic-series spec; ``steps_per_day`` and ``seasonal_period`` form its ``freq``."""
    rest = _mapping(raw, "synth")
    freq = {k: rest.pop(k) for k in ("steps_per_day", "seasonal_period") if k in rest}
    components = [_strict(Component, c, "synth component") for c in rest.pop("components", None) or ()]
    return _strict(
        SynthSpec, rest, "synth", freq=_strict(FrequencySpec, freq, "synth"), components=components
    )


# Dataset keys that only a CSV entry reads; a synth entry sets its frequency inside ``synth``.
_CSV_KEYS = ("steps_per_day", "seasonal_period", "timestamp_column", "value_column", "covariate_columns")
# The segment keys, by the RunConfig field each fills.
_SEGMENT_KEYS = {"len_days": "segment_len_days", "stride": "stride_days"}


def config_from_dict(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Build a run config from parsed YAML; CSV paths resolve against ``base_dir``."""
    base = Path(base_dir) if base_dir is not None else Path(".")
    rest = _mapping(raw, "config")
    datasets = []
    for entry in rest.pop("datasets", None) or ():
        d = _mapping(entry, "dataset")
        if "synth" in d:
            for key in _CSV_KEYS:
                if key in d:
                    raise ValueError(f"dataset {d.get('id')!r}: {key!r} applies only to CSV datasets, not to synth")
            d["synth"] = synth_from_dict(d["synth"])
        if d.get("path") is not None:
            d["path"] = str(base / d["path"])
        datasets.append(_strict(DatasetSpec, d, "dataset"))
    imputers = [_strict(ImputerSpec, i, "imputer") for i in rest.pop("imputers", None) or ()]
    scenarios = [_strict(Scenario, s, "scenario") for s in rest.pop("scenarios", None) or ()]
    # A segment key that fills no field keeps a dotted name, which the strict
    # check below rejects.
    segment = _mapping(rest.pop("segment", None) or {}, "segment")
    rest.update({_SEGMENT_KEYS.get(k, f"segment.{k}"): v for k, v in segment.items()})
    return _strict(RunConfig, rest, "config", datasets=datasets, imputers=imputers, scenarios=scenarios)


def load_config(path) -> RunConfig:
    """Parse a YAML run configuration; omitted keys take the protocol defaults."""
    path = Path(path)
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    return config_from_dict(raw, base_dir=path.parent)


def config_digest(config: RunConfig) -> str:
    # output_dir has no effect on any result, so it does not identify the
    # experiment. A CSV dataset counts by the SHA-256 of its bytes, not by its
    # path, so a config and its data digest alike in any directory.
    payload = asdict(config)
    payload.pop("output_dir", None)
    for ds in payload["datasets"]:
        if ds["path"] is not None:
            ds["path"] = hashlib.sha256(Path(ds["path"]).read_bytes()).hexdigest()
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_timestamp(text: str):
    try:
        return int(text)
    except ValueError:
        return datetime.fromisoformat(text)


def read_csv_columns(path, timestamp_column: str, columns: tuple[str, ...], prefix: str | None = None):
    """The sorted timestamps of a comma-separated file, and one float array per column in their order.

    The header must name ``timestamp_column`` and each of ``columns``; header
    columns that start with ``prefix``, when given, are read too. Timestamps
    are integers or ISO-8601 datetimes, all of one kind (naive and aware
    datetimes are two), and no two equal. An empty cell is missing (NaN); a
    cell that is not a finite number (``nan`` and ``inf`` included) is an error.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file (header row required)")
        for col in (timestamp_column, *columns):
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {col!r}")
        if prefix is not None:
            columns = (*columns, *(c for c in reader.fieldnames if c.startswith(prefix) and c not in columns))
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    def _stamp(row):
        text = (row.get(timestamp_column) or "").strip()
        try:
            return parse_timestamp(text)
        except ValueError:
            raise ValueError(f"{path}: non-timestamp cell {text!r} in column {timestamp_column!r}") from None

    def _cell(row, col):
        text = (row.get(col) or "").strip()
        if not text:
            return math.nan
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}: non-numeric cell {text!r} in column {col!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: non-finite cell {text!r} in column {col!r}")
        return value

    stamps = [_stamp(r) for r in rows]
    if len({(type(s), getattr(s, "tzinfo", None) is None) for s in stamps}) > 1:
        raise ValueError(f"{path}: mixed timestamp formats")
    if len(set(stamps)) != len(stamps):
        raise ValueError(f"{path}: duplicate timestamps")
    stamps, rows = zip(*sorted(zip(stamps, rows), key=lambda pair: pair[0]))
    return stamps, {c: np.array([_cell(r, c) for r in rows]) for c in columns}


def ingest_csv(
    path,
    freq: FrequencySpec,
    timestamp_column: str = DatasetSpec.timestamp_column,
    value_column: str = DatasetSpec.value_column,
    covariate_columns: tuple[str, ...] = DatasetSpec.covariate_columns,
    series_id: str | None = None,
) -> TimeSeries:
    """Load a comma-separated file onto the regular tick grid.

    The timestamp column may hold integers (taken as raw grid ticks) or
    ISO-8601 datetimes, whose grid step is inferred as the smallest positive
    spacing; every other spacing must be a whole multiple of it. Skipped
    ticks are materialized as unobserved. Empty cells mean missing: in the
    target they clear the observation mask, in covariates they stay NaN. A
    cell that is not a finite number (``nan`` and ``inf`` included) is an error.
    """
    path = Path(path)
    stamps, columns = read_csv_columns(path, timestamp_column, (value_column, *covariate_columns))

    if isinstance(stamps[0], datetime):
        # Infer the grid step as the smallest positive spacing; every other
        # spacing must be a whole multiple of it (a gap on the same grid).
        offsets = np.array([(s - stamps[0]) // timedelta(microseconds=1) for s in stamps], dtype=np.int64)
        if len(offsets) > 1:
            diffs = np.diff(offsets)
            step = int(diffs.min())
            if step <= 0 or np.any(diffs % step != 0):
                raise ValueError(f"{path}: non-uniform sampling")
            ticks = offsets // step
        else:
            ticks = offsets
    else:
        # Integer timestamps are raw grid ticks; absent ticks are gaps.
        ticks = np.array(stamps, dtype=np.int64) - int(stamps[0])

    n = int(ticks[-1]) + 1
    grid = {c: np.full(n, np.nan) for c in columns}
    for c, column in columns.items():
        grid[c][ticks] = column
    return TimeSeries(
        id=series_id or path.stem,
        timestamps=np.arange(n, dtype=np.int64),
        values=grid[value_column],
        obs_mask=~np.isnan(grid[value_column]),
        freq=freq,
        covariates={c: grid[c] for c in covariate_columns},
    )


def load_dataset(spec: DatasetSpec) -> TimeSeries:
    if spec.synth is not None:
        return synth_generate(spec.synth, series_id=spec.id)
    freq = FrequencySpec(steps_per_day=spec.steps_per_day, seasonal_period=spec.seasonal_period)
    return ingest_csv(
        spec.path,
        freq,
        timestamp_column=spec.timestamp_column,
        value_column=spec.value_column,
        covariate_columns=spec.covariate_columns,
        series_id=spec.id,
    )


@dataclass(frozen=True)
class BenchReport:
    records: tuple[ScoreRecord, ...]
    aggregates: tuple[dict, ...]
    ranks: dict[str, float]
    meta: dict


def _score_task(args) -> list[ScoreRecord]:
    # test_start is the grid tick of the test slice's first row: an error names
    # the window by its grid ticks, while the mask seed hashes segment.start.
    ds_id, segment, scenario, run_seed, imputer_specs, test_start = args
    mask_seed = stable_seed(run_seed, ds_id, segment.start, scenario.label)
    try:
        masked = apply_scenario(segment, scenario, mask_seed)
    except InfeasibleScenario:
        return []
    truth, std = masked.values[masked.eval_mask], floored_std(masked.values[masked.obs_mask])
    records = []
    for spec in imputer_specs:
        try:
            imputation = make_imputer(spec.id, **spec.params)(masked)
        except ValueError as err:
            first = test_start + segment.start
            ticks = f"{first}-{first + segment.length - 1}"
            where = f"dataset {ds_id!r}, ticks {ticks}, scenario {scenario.label!r}, imputer {spec.name!r}"
            raise ValueError(f"{where}: {err}") from err
        mae = znorm_mae(truth, imputation.point, std)
        wql_value = None
        if imputation.quantiles is not None:
            try:
                wql_value = wql(imputation.quantiles, truth)
            except ValueError:
                wql_value = None
        records.append(
            ScoreRecord(
                dataset=ds_id,
                imputer_id=spec.name,
                scenario_label=scenario.label,
                n_points=len(truth),
                mae=mae,
                wql=wql_value,
            )
        )
    return records


def _record_sort_key(r: ScoreRecord):
    return (
        r.dataset,
        r.imputer_id,
        r.scenario_label,
        r.n_points,
        r.mae,
        -np.inf if r.wql is None else r.wql,
    )


# The thread API symbols of the OpenBLAS copies that numpy and scipy wheels
# bundle: a scipy_ prefix, and a 64_ suffix on 64-bit-integer builds.
_OPENBLAS_THREAD_API = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


def _openblas_thread_api() -> list[tuple]:
    """(getter, setter) of the thread count of each OpenBLAS already loaded.

    Libraries are found in /proc/self/maps, so only on Linux; elsewhere, and
    under MKL, Accelerate or a system BLAS, the list is empty.
    """
    # Imported here, not at module level, so that importing the harness
    # costs nothing more.
    import ctypes
    import os

    try:
        with open("/proc/self/maps") as fh:
            # The sixth field, the path, is the only one that can name a library.
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    api = []
    for path in paths:
        try:
            # RTLD_NOLOAD opens only a copy that is already mapped; it never
            # loads another one.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_API:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                api.append((getter, setter))
                break
    return api


# Every fit is small (672 x 129 at most on the demo), so BLAS threads only
# add synchronisation, and each OpenBLAS copy would start one per CPU.
# Parallelism comes from --jobs alone. The count is not an option: every
# caller wants one thread.
@contextmanager
def _one_blas_thread():
    """Pin each loaded OpenBLAS copy to one thread; restore the old counts on exit."""
    api = _openblas_thread_api()
    before = [getter() for getter, _ in api]
    for _, setter in api:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(api, before):
            setter(count)


def _pin_worker(imputers: tuple[ImputerSpec, ...] = ()) -> None:
    """Pool initializer: one BLAS thread per worker process, for its life.

    The ``imputers`` are built first. A worker that was not forked from the
    run has not loaded what they load (scipy for a quantile head), and an
    OpenBLAS copy loaded after the pin would keep one thread per CPU.
    """
    for spec in imputers:
        make_imputer(spec.id, **spec.params)
    for _, setter in _openblas_thread_api():
        setter(1)


def run(config: RunConfig, jobs: int = 1) -> BenchReport:
    """Execute the full dataset x scenario x imputer matrix.

    Work items are independent and may run in parallel; per-item seeds hash
    identifiers rather than iteration order, and records are stably sorted
    before reporting, so any degree of parallelism reproduces the serial
    output byte for byte.

    Each OpenBLAS copy that numpy and scipy loaded runs on one thread while
    the tasks run, in this process and in each of the ``jobs`` pool workers;
    the old thread counts come back when the loop ends, also on an error.
    Parallelism comes from ``jobs`` alone.
    """
    failures: dict[str, str] = {}
    loaded: list[tuple[DatasetSpec, TimeSeries]] = []
    for ds in config.datasets:
        try:
            loaded.append((ds, load_dataset(ds)))
        except Exception as err:
            failures[ds.id] = str(err)
    if failures:
        raise IngestionError(failures)
    for ds, series in loaded:
        for spec in config.imputers:
            if spec.id == "covar_ridge" and not series.covariates:
                raise ValueError(f"imputer {spec.name!r} needs a covariate channel, but dataset {ds.id!r} has none")

    tasks = []
    for ds, series in loaded:
        _, _, test = chrono_split(series, config.splits)
        segments = extract_segments(
            test,
            seg_len_days=config.segment_len_days,
            stride_min_days=config.stride_days[0],
            stride_max_days=config.stride_days[1],
            seed=stable_seed(config.seed, ds.id, "segments"),
        )
        if not segments:
            window = config.segment_len_days * test.freq.steps_per_day
            raise ValueError(
                f"dataset {ds.id!r} yields no segment: its test slice of {len(test)} ticks holds no"
                f" {window}-tick ({config.segment_len_days}-day) window with an observed value"
            )
        if ds.min_std_filter > 0:
            segments = [s for s in segments if floored_std(s.values[s.obs_mask]) >= ds.min_std_filter]
        for segment in segments:
            for scenario in config.scenarios:
                tasks.append((ds.id, segment, scenario, config.seed, config.imputers, int(test.timestamps[0])))

    with _one_blas_thread():
        if jobs > 1:
            # Imported here: a serial run never loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            # About four chunks per worker: fewer round trips, still balanced.
            chunksize = max(1, math.ceil(len(tasks) / (4 * jobs)))
            with ProcessPoolExecutor(max_workers=jobs, initializer=_pin_worker, initargs=(config.imputers,)) as pool:
                chunks = list(pool.map(_score_task, tasks, chunksize=chunksize))
        else:
            chunks = [_score_task(t) for t in tasks]
    records = sorted((r for chunk in chunks for r in chunk), key=_record_sort_key)

    by_scenario = aggregate(records, ("dataset", "imputer_id", "scenario_label"))
    by_dataset = aggregate(by_scenario, ("dataset", "imputer_id"))
    overall = aggregate(by_dataset, ("imputer_id",))
    aggregates = (
        [{"level": "dataset_scenario", **row} for row in by_scenario]
        + [{"level": "dataset", **row} for row in by_dataset]
        + [{"level": "overall", **row} for row in overall]
    )

    notes = [NORMALIZATION_NOTE, CONTEXT_NOTE]
    caveats = []
    if any(im.id.startswith("tix_random_basis") for im in config.imputers):
        caveats.append(RANDOM_BASIS_CAVEAT)
    try:
        ranks = average_ranks(records, metric=config.rank_metric)
    except ValueError as err:
        ranks = {}
        notes.append(f"ranks unavailable: {err}")

    meta = {
        "seed": config.seed,
        "version": __version__,
        "config_digest": config_digest(config),
        "rank_metric": config.rank_metric,
        "notes": notes,
        "caveats": caveats,
    }
    return BenchReport(
        records=tuple(records), aggregates=tuple(aggregates), ranks=ranks, meta=meta
    )


def _fmt_float(x) -> str:
    return "" if x is None else repr(float(x))


def report(records, aggregates, ranks, output_dir, meta: dict | None = None) -> dict[str, Path]:
    """Write results.json, results.csv and report.md; returns the paths.

    results.json carries a content digest computed with the wall-clock
    timestamp removed, so identically-seeded runs are comparable byte for
    byte after dropping ``meta.generated_at``.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = dict(meta or {})
    payload = {
        "meta": meta,
        "records": [asdict(r) for r in records],
        "aggregates": [dict(a) for a in aggregates],
        "ranks": {k: float(v) for k, v in sorted(ranks.items())},
    }
    stable = json.dumps(
        {**payload, "meta": {k: v for k, v in meta.items() if k != "generated_at"}},
        sort_keys=True,
        allow_nan=False,
    )
    meta["content_digest"] = hashlib.sha256(stable.encode()).hexdigest()
    meta.setdefault("generated_at", datetime.now(timezone.utc).isoformat())

    json_path = out / "results.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "imputer_id", "scenario_label", "n_points", "mae", "wql"])
        for r in records:
            writer.writerow(
                [r.dataset, r.imputer_id, r.scenario_label, r.n_points, _fmt_float(r.mae), _fmt_float(r.wql)]
            )

    md_path = out / "report.md"
    with open(md_path, "w") as fh:
        fh.write(_render_markdown(aggregates, ranks, meta))
    return {"json": json_path, "csv": csv_path, "markdown": md_path}


def _render_markdown(aggregates, ranks, meta) -> str:
    cells = [a for a in aggregates if a.get("level", "dataset_scenario") == "dataset_scenario"]
    imputers = sorted({a["imputer_id"] for a in cells})
    table: dict[tuple[str, str], dict[str, float]] = {}
    for a in cells:
        table.setdefault((a["dataset"], a["scenario_label"]), {})[a["imputer_id"]] = a["mae"]

    lines = ["# Imputation benchmark report", ""]
    for note in meta.get("notes", []):
        lines.append(f"- {note}")
    for caveat in meta.get("caveats", []):
        lines.append(f"- caveat: {caveat}")
    lines.append("")
    lines.append("## Normalized MAE by dataset and scenario")
    lines.append("")
    lines.append("| dataset | scenario | " + " | ".join(imputers) + " |")
    lines.append("|---|---|" + "---|" * len(imputers))
    for (dataset, scenario) in sorted(table):
        row = table[(dataset, scenario)]
        values = [row.get(name) for name in imputers]
        present = sorted(v for v in values if v is not None)
        best = present[0] if present else None
        second = present[1] if len(present) > 1 else None
        rendered = []
        for v in values:
            if v is None:
                rendered.append("")
            elif v == best:
                rendered.append(f"**{v:.4f}**")
            elif v == second:
                rendered.append(f"<u>{v:.4f}</u>")
            else:
                rendered.append(f"{v:.4f}")
        lines.append(f"| {dataset} | {scenario} | " + " | ".join(rendered) + " |")
    lines.append("")
    if ranks:
        lines.append(f"## Average ranks ({meta.get('rank_metric', 'mae')}, lower is better)")
        lines.append("")
        lines.append("| imputer | average rank |")
        lines.append("|---|---|")
        for name, rank in sorted(ranks.items(), key=lambda kv: kv[1]):
            lines.append(f"| {name} | {rank:.3f} |")
        lines.append("")
    return "\n".join(lines)


def run_and_report(config: RunConfig, jobs: int = 1, output_dir=None) -> tuple[BenchReport, dict[str, Path]]:
    """Convenience wrapper: execute a run and write its report files."""
    bench = run(config, jobs=jobs)
    paths = report(
        bench.records,
        bench.aggregates,
        bench.ranks,
        output_dir or config.output_dir,
        meta=bench.meta,
    )
    return bench, paths
