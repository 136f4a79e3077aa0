"""Benchmark harness: config files, CSV ingestion, the run loop, reports.

A run walks every configured dataset through a chronological split, slides
four-week windows over the test slice, masks each window under every
missingness scenario with a seed derived by stable-hashing the run seed with
the dataset id, segment start and scenario label (so parallel and serial
execution agree), has each imputer impute a window's masked copies in one
call, scores every task, and writes machine-readable and human-readable
reports. Everything downstream of the config is deterministic; the only
volatile report field is the wall-clock timestamp, which is excluded from the
content digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core import FrequencySpec, TimeSeries, _check_window, _split_fractions, chrono_split, extract_segments
from .core import MAX_MAGNITUDE, floored_std, real_number, sequence, whole_number
from .imputers import _checked_params, make_imputer
from .masking import DEFAULT_SCENARIOS, InfeasibleScenario, Scenario, apply_scenario
from .metrics import ScoreRecord, _task_table, aggregate, average_ranks, wql, znorm_mae
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
# A CSV whose grid is longer than this many ticks per row is refused: such a
# gap is almost surely a unit mistake, such as epoch seconds read as ticks.
MAX_TICKS_PER_ROW = 100


def stable_seed(*parts) -> int:
    """64-bit seed from a stable hash of the identifying parts."""
    payload = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset entry: a CSV path and the frequency of its grid, or an inline synthetic spec."""

    id: str
    path: str | None = None
    synth: SynthSpec | None = None
    freq: FrequencySpec | None = None
    timestamp_column: str = "timestamp"
    value_column: str = "value"
    covariate_columns: tuple[str, ...] = ()
    min_std_filter: float = 0.0

    def __post_init__(self) -> None:
        if self.id is None:
            raise ValueError("dataset id must not be None")
        object.__setattr__(self, "id", str(self.id))
        columns = sequence(self.covariate_columns, "covariate_columns")
        object.__setattr__(self, "covariate_columns", tuple(columns))
        # A covariate read from the value column would hand the held-out truth to every covariate head.
        names = [self.timestamp_column, self.value_column, *columns]
        for twice in (name for i, name in enumerate(names) if name in names[:i]):
            raise ValueError(f"column {twice!r} is named twice among timestamp, value and covariate columns")
        object.__setattr__(self, "min_std_filter", real_number(self.min_std_filter, "min_std_filter"))
        if (self.path is None) == (self.synth is None) or (self.path is None) != (self.freq is None):
            raise ValueError("needs exactly one of path or synth, and a freq with a path only")


@dataclass(frozen=True)
class ImputerSpec:
    """Registry id plus parameter overrides; ``name`` keys the report columns."""

    id: str
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name or self.id))
        # Each param as its rule returns it, so that its spelling does not move config_digest.
        object.__setattr__(self, "params", _checked_params(self.id, _section(self.params, "params", {})))


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
        object.__setattr__(self, "seed", whole_number(self.seed, "seed"))
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        object.__setattr__(self, "splits", _split_fractions(self.splits))
        days, *stride = _check_window(self.segment_len_days, self.stride_days)
        object.__setattr__(self, "segment_len_days", days)
        object.__setattr__(self, "stride_days", tuple(stride))
        # Each list holds at least one entry, and each entry's name tells it from its siblings and fits in one cell
        # of a report.md table row.
        for key, name in (("datasets", "id"), ("imputers", "name"), ("scenarios", "label")):
            object.__setattr__(self, key, tuple(getattr(self, key)))
            names = [getattr(entry, name) for entry in getattr(self, key)]
            if not names:
                raise ValueError(f"{key} must not be empty")
            if len(set(names)) != len(names):
                raise ValueError(f"{key[:-1]} {name}s must be unique")
            for split in (n for n in names if {"|", "\n", "\r"} & set(n)):
                raise ValueError(f"{key}: {name} {split!r} holds '|' or a line break, which would split a report row")
        if self.rank_metric not in ("mae", "wql"):
            raise ValueError("rank_metric must be 'mae' or 'wql'")


def _section(raw, where: str, default):
    """A config section or entry: missing or null reads as ``default``; else a list, or a mapping like ``default``."""
    if raw is None:
        return default
    if not isinstance(default, dict):
        return sequence(raw, where)
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected a mapping, got {raw!r}")
    return dict(raw)


def _named(cls, raw: dict, where: str) -> str:
    """``where`` and the first of an entry's ``name``, ``id`` and ``label`` that ``cls`` has and ``raw`` sets."""
    tags = [raw[k] for k in ("name", "id", "label") if raw.get(k) is not None and k in cls.__dataclass_fields__]
    return f"{where} {tags[0]!r}" if tags else where


def _strict(cls, raw, where: str, **resolved):
    """Build ``cls`` from the mapping ``raw`` plus the fields in ``resolved``.

    Every key of ``raw`` must name a field of ``cls`` that ``resolved`` does
    not set, and every omitted field takes the default that ``cls`` declares.
    An unknown key, a missing or null field that has no default, or a value
    that ``cls`` refuses or cannot convert, is a ``ValueError`` that says
    where it was, naming the entry as ``_named`` does.
    """
    raw = _section(raw, where, {})
    where = _named(cls, raw, where)
    free = [f for f in fields(cls) if f.name not in resolved]
    unknown = [k for k in raw if k not in {f.name for f in free}]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    missing = [f.name for f in free if raw.get(f.name) is None and MISSING is f.default is f.default_factory]
    if missing:
        raise ValueError(f"{where}: missing key {', '.join(map(repr, missing))}")
    try:
        return cls(**raw, **resolved)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}: {err}") from None


def _freq(raw: dict, where: str) -> FrequencySpec:
    """The ``FrequencySpec`` of the ``steps_per_day`` and ``seasonal_period`` popped from ``raw``."""
    return _strict(FrequencySpec, {k: raw.pop(k) for k in ("steps_per_day", "seasonal_period") if k in raw}, where)


def synth_from_dict(raw) -> SynthSpec:
    """Build a synthetic-series spec; ``steps_per_day`` and ``seasonal_period`` form its ``freq``."""
    rest = _section(raw, "synth", {})
    freq = _freq(rest, "synth")
    components = _section(rest.pop("components", None), "synth components", ())
    components = [_strict(Component, c, "synth component") for c in components]
    return _strict(SynthSpec, rest, "synth", freq=freq, components=components)


# Dataset keys that only a CSV entry reads; a synth entry sets its frequency inside ``synth``.
_CSV_KEYS = ("steps_per_day", "seasonal_period", "timestamp_column", "value_column", "covariate_columns")
# The segment keys, by the RunConfig field each fills.
_SEGMENT_KEYS = {"len_days": "segment_len_days", "stride": "stride_days"}


def config_from_dict(raw, base_dir: Path | None = None) -> RunConfig:
    """Build a run config from parsed YAML; CSV paths resolve against ``base_dir``."""
    base = Path(base_dir) if base_dir is not None else Path(".")
    rest = _section(raw, "config", {})
    datasets = []
    for entry in _section(rest.pop("datasets", None), "datasets", ()):
        d = _section(entry, "dataset", {})
        where = _named(DatasetSpec, d, "dataset")
        if "synth" in d:
            for key in _CSV_KEYS:
                if key in d:
                    raise ValueError(f"{where}: {key!r} applies only to CSV datasets, not to synth")
            d["synth"] = synth_from_dict(d["synth"])
        if d.get("path") is not None:
            if not isinstance(d["path"], str):
                raise ValueError(f"{where}: path must be a string, got {d['path']!r}")
            d["path"] = str(base / d["path"])
        freq = _freq(d, where) if "path" in d and "synth" not in d else None
        datasets.append(_strict(DatasetSpec, d, "dataset", freq=freq))
    imputers = [_strict(ImputerSpec, i, "imputer") for i in _section(rest.pop("imputers", None), "imputers", ())]
    # A missing or null scenarios list leaves the RunConfig default.
    if (scenarios := _section(rest.pop("scenarios", None), "scenarios", None)) is not None:
        rest["scenarios"] = [_strict(Scenario, s, "scenario") for s in scenarios]
    # A segment key that fills no field keeps a dotted name, which the strict
    # check below rejects.
    segment = _section(rest.pop("segment", None), "segment", {})
    rest.update({_SEGMENT_KEYS.get(k, f"segment.{k}"): v for k, v in segment.items()})
    return _strict(RunConfig, rest, "config", datasets=datasets, imputers=imputers)


def _read_text(path) -> str:
    """A UTF-8 file's text, less one leading byte-order mark; a byte not UTF-8 is a ValueError naming file and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line}: byte {data[err.start]:#04x} is not UTF-8") from None


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a key given twice in one mapping. It checks each mapping as it is composed, before
    pyyaml puts what a ``<<`` key merges in front of its own pairs, so a key may override a merged one; a key that is
    not a scalar is left to SafeLoader, which refuses it as unhashable."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                if (key := self.construct_object(key_node)) in seen:
                    raise yaml.constructor.ConstructorError(None, None, f"duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return node


def read_yaml(path):
    """The document of a UTF-8 YAML file; malformed YAML, a repeated key too, is a ``ValueError`` naming the file."""
    try:
        return yaml.load(_read_text(path), Loader=_UniqueKeyLoader)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ValueError(f"{path}: malformed YAML{at}: {getattr(err, 'problem', err)}") from None


def load_config(path) -> RunConfig:
    """Parse a YAML run configuration; omitted keys take the protocol defaults."""
    path = Path(path)
    return config_from_dict(read_yaml(path), base_dir=path.parent)


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


def read_csv_columns(path, timestamp_column: str, columns: tuple[str, ...], prefix: str | None = None):
    """The sorted timestamps of a comma-separated file, and one float array per column in their order.

    The header must name ``timestamp_column`` and each of ``columns``; header columns that start with ``prefix``,
    when given, are read too. A column read is named once and read once. Timestamps are integers within int64 or
    ISO-8601 datetimes, all of one kind (naive and aware datetimes are two), and no two equal. An empty cell, or one
    past the end of a short row, is missing (NaN); a cell that is not a finite number (``nan`` and ``inf`` included)
    is an error, and so, after any header fault, is a file that csv cannot parse, named with the line it stopped at.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        if (header := next(reader, None)) is None:
            raise ValueError(f"{path}: empty file (header row required)")
        if prefix is not None:
            columns = (*columns, *(c for c in header if c.startswith(prefix) and c not in columns))
        for col in (read := (timestamp_column, *columns)):
            if header.count(col) != 1:
                raise ValueError(f"{path}: {'repeated' if col in header else 'missing'} column {col!r}")
            if read.count(col) != 1:
                raise ValueError(f"{path}: column {col!r} is read twice")
        at = [header.index(col) for col in read]
        rows = [[row[i].strip() if i < len(row) else "" for i in at] for row in reader if row]
    except csv.Error as err:
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")

    def _stamp(text):
        try:
            stamp = int(text)
        except ValueError:
            try:
                return datetime.fromisoformat(text)
            except ValueError:
                raise ValueError(f"{path}: non-timestamp cell {text!r} in column {timestamp_column!r}") from None
        if not -(2**63) <= stamp < 2**63:
            raise ValueError(f"{path}: timestamp cell {text!r} in column {timestamp_column!r} is beyond int64")
        return stamp

    def _cell(text, col):
        if not text:
            return math.nan
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}: non-numeric cell {text!r} in column {col!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: non-finite cell {text!r} in column {col!r}")
        return value

    stamps = [_stamp(r[0]) for r in rows]
    if len({(type(s), getattr(s, "tzinfo", None) is None) for s in stamps}) > 1:
        raise ValueError(f"{path}: mixed timestamp formats")
    if len(set(stamps)) != len(stamps):
        raise ValueError(f"{path}: duplicate timestamps")
    stamps, rows = zip(*sorted(zip(stamps, rows), key=lambda pair: pair[0]))
    return stamps, {c: np.array([_cell(r[k], c) for r in rows]) for k, c in enumerate(columns, 1)}


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
    ticks are materialized as unobserved; a grid of more than
    ``MAX_TICKS_PER_ROW`` ticks a row is refused before it is built. Empty
    cells mean missing: in the target they clear the observation mask, in
    covariates they stay NaN. A cell that is not a finite number (``nan``
    and ``inf`` included), or whose magnitude is above ``MAX_MAGNITUDE``, is an error.
    """
    path = Path(path)
    stamps, columns = read_csv_columns(path, timestamp_column, (value_column, *covariate_columns))

    # Offsets from the first row, in Python integers, which cannot wrap: ticks
    # for integer timestamps, microseconds for datetimes. The rows are sorted
    # and distinct, so every spacing is positive.
    if isinstance(stamps[0], datetime):
        offsets = [(s - stamps[0]) // timedelta(microseconds=1) for s in stamps]
        step = min((b - a for a, b in zip(offsets, offsets[1:])), default=1)
    else:
        offsets, step = [s - stamps[0] for s in stamps], 1
    if any(o % step for o in offsets):
        raise ValueError(f"{path}: non-uniform sampling")
    n = offsets[-1] // step + 1
    if n > MAX_TICKS_PER_ROW * len(offsets):
        raise ValueError(f"{path}: {len(offsets)} rows span a grid of {n} ticks, over {MAX_TICKS_PER_ROW} a row")
    ticks = np.array(offsets, dtype=np.int64) // step
    grid = {c: np.full(n, np.nan) for c in columns}
    for c, column in columns.items():
        if (big := np.flatnonzero(np.abs(column) > MAX_MAGNITUDE)).size:
            at = f"cell {float(column[big[0]])!r} in column {c!r} at timestamp {stamps[big[0]]}"
            raise ValueError(f"{path}: {at} is above the bound {MAX_MAGNITUDE:g} on a value's magnitude")
        grid[c][ticks] = column
    values, covariates = grid[value_column], {c: grid[c] for c in covariate_columns}
    return TimeSeries(series_id or path.stem, values, ~np.isnan(values), freq, covariates)


def load_dataset(spec: DatasetSpec) -> TimeSeries:
    if spec.synth is not None:
        return synth_generate(spec.synth, series_id=spec.id)
    return ingest_csv(
        spec.path, spec.freq, spec.timestamp_column, spec.value_column, spec.covariate_columns, series_id=spec.id
    )


@dataclass(frozen=True)
class BenchReport:
    records: tuple[ScoreRecord, ...]
    aggregates: tuple[dict, ...]
    ranks: dict[str, float]
    meta: dict


def _score_task(args) -> list[ScoreRecord]:
    # One task: a masked segment, and a (name, imputation of it) pair per configured imputer.
    ds_id, masked, scenario, imputations = args
    truth, std = masked.values[masked.eval_mask], floored_std(masked.values[masked.obs_mask])
    maes = znorm_mae(truth, np.array([imputation.point for _, imputation in imputations]), std)
    records = []
    for (name, imputation), mae in zip(imputations, maes):
        # wql divides by the held-out truth's absolute sum, so an all-zero truth leaves it empty.
        wql_value = wql(imputation.quantiles, truth) if imputation.quantiles is not None and truth.any() else None
        records.append(ScoreRecord(ds_id, name, scenario.label, len(truth), mae, wql_value))
    return records


def _score_window(window, run_seed: int, entries: list[tuple], imputers: dict) -> list[ScoreRecord]:
    """Mask a (dataset id, segment, scenarios, test start) window under each scenario, impute its masked copies with
    one call per distinct key of the (name, key) pairs of ``entries``, through the built imputer ``imputers`` holds for
    that key, and score each task. Test start is the grid tick of the test slice's first row: an error names the
    window by its grid ticks, while the mask seed hashes segment.start. A ``ValueError`` from imputing or scoring
    re-runs the window one task and imputer at a time, so that the error names the first to fail."""
    ds_id, segment, scenarios, test_start = window
    tasks = []
    for scenario in scenarios:
        mask_seed = stable_seed(run_seed, ds_id, segment.start, scenario.label)
        with suppress(InfeasibleScenario):
            tasks.append((scenario, apply_scenario(segment, scenario, mask_seed)))
    if not tasks:
        return []
    copies = [masked for _, masked in tasks]
    try:
        columns = {key: imputers[key](copies) for key in dict.fromkeys(key for _, key in entries)}
        return [
            r
            for t, (scenario, masked) in enumerate(tasks)
            for r in _score_task((ds_id, masked, scenario, [(name, columns[key][t]) for name, key in entries]))
        ]
    except ValueError:
        first = test_start + segment.start
        for scenario, masked in tasks:
            for name, key in entries:
                try:
                    _score_task((ds_id, masked, scenario, [(name, imputers[key]([masked])[0])]))
                except ValueError as err:
                    task = f"ticks {first}-{first + len(segment) - 1}, scenario {scenario.label!r}, imputer {name!r}"
                    raise ValueError(f"dataset {ds_id!r}, {task}: {err}") from err
        raise


def _record_sort_key(r: ScoreRecord):
    return (
        r.dataset,
        r.imputer_id,
        r.scenario_label,
        r.n_points,
        r.mae,
        -np.inf if r.wql is None else r.wql,
    )


# The thread API symbols an OpenBLAS build may export: a scipy_ prefix on
# the copy numpy wheels bundle, and a 64_ suffix on 64-bit-integer builds.
_OPENBLAS_THREAD_API = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


def _openblas_thread_api() -> list[tuple]:
    """[(getter, setter)] of the thread count of the OpenBLAS that numpy links, or [] under any other BLAS.

    A handle on numpy's linalg extension resolves symbols in that module and
    the libraries it links, so it finds numpy's copy and never scipy's.
    """
    # Imported here, not at module level, so that importing the harness
    # costs nothing more.
    import ctypes

    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for get_name, set_name in _OPENBLAS_THREAD_API:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            getter, setter = getattr(lib, get_name), getattr(lib, set_name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return [(getter, setter)]
    return []


# Every fit is small (672 x 129 at most on the demo), so BLAS threads only
# add synchronisation, and numpy's OpenBLAS would start one per CPU.
# Parallelism comes from --jobs alone. The count is not an option: every
# caller wants one thread.
@contextmanager
def _one_blas_thread():
    """Pin the OpenBLAS that numpy links to one thread; restore the old count on exit."""
    api = _openblas_thread_api()
    before = [getter() for getter, _ in api]
    for _, setter in api:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(api, before):
            setter(count)


def _score_tasks(run_seed: int, specs: tuple[ImputerSpec, ...], windows: list[tuple]) -> list[ScoreRecord]:
    """Score the tasks of (dataset id, segment, scenarios, test start) windows with ``specs``' imputers, built once.

    An entry's key on a window is the window's covariate flag, its id and its params less ``use_covariates`` where
    that is false or the window has no covariate channel. Entries of one key share the first one's imputer, run once."""
    imputers, entries = {}, {False: [], True: []}
    for spec in specs:
        imputer = make_imputer(spec.id, **spec.params)
        for flag, named in entries.items():
            key = (flag, spec.id, *sorted(p for p in spec.params.items() if p[0] != "use_covariates" or flag and p[1]))
            named.append((spec.name, key))
            imputers.setdefault(key, imputer)
    # The imputers call no BLAS but numpy's, so the pin covers only numpy's copy, also where the caller imported scipy.
    with _one_blas_thread():
        return [r for w in windows for r in _score_window(w, run_seed, entries[bool(w[1].covariates)], imputers)]


def run(config: RunConfig, jobs: int = 1) -> BenchReport:
    """Execute the full dataset x scenario x imputer matrix.

    Work items are independent and may run in parallel; per-item seeds hash
    identifiers rather than iteration order, and records are stably sorted
    before reporting, so any degree of parallelism reproduces the serial
    output byte for byte.

    The tasks run in batches: all in this process at ``jobs`` 1 or when they
    form one batch, else about four per pool worker. A batch builds each
    imputer once, then runs its tasks with numpy's OpenBLAS on one thread;
    the old count comes back when the batch ends, also on an error.
    Parallelism comes from ``jobs`` alone. Before any task runs, one
    ``ValueError`` names every dataset that cannot run, in order of id, each
    with its first failure: it fails to load, has no covariate channel for
    ``covar_ridge``, yields no segment, or has a missing covariate cell (named
    by its grid tick) in a scored window under an imputer that reads it.
    ``jobs`` below 1 is a ``ValueError`` before any dataset loads.
    """
    jobs = whole_number(jobs, "jobs", least=1)
    # The entries that read every covariate channel of each window they impute.
    readers = [spec for spec in config.imputers if spec.id == "covar_ridge" or spec.params.get("use_covariates")]
    ridge = next((spec for spec in readers if spec.id == "covar_ridge"), None)
    failures: dict[str, str] = {}
    windows = []
    for ds in config.datasets:
        # The except takes what bad input raises, so that a bug still ends in a traceback.
        try:
            series = load_dataset(ds)
            if ridge and not series.covariates:
                raise ValueError(f"has no covariate channel, which imputer {ridge.name!r} needs")
            _, _, test = chrono_split(series, config.splits)
            segments = extract_segments(
                test, config.segment_len_days, *config.stride_days, seed=stable_seed(config.seed, ds.id, "segments")
            )
            if not segments:
                window = config.segment_len_days * test.freq.steps_per_day
                raise ValueError(
                    f"its test slice of {len(test)} ticks holds no {window}-tick"
                    f" ({config.segment_len_days}-day) window with an observed value"
                )
            if ds.min_std_filter > 0:
                segments = [s for s in segments if floored_std(s.values[s.obs_mask]) >= ds.min_std_filter]
            for segment in segments:
                for name in sorted(segment.covariates) if readers else ():
                    gaps = np.flatnonzero(~np.isfinite(segment.covariates[name]))
                    if gaps.size:
                        raise ValueError(
                            f"covariate {name!r} has no value at tick {test.start + segment.start + gaps[0]},"
                            f" which imputer {readers[0].name!r} reads"
                        )
                windows.append((ds.id, segment, config.scenarios, test.start))
        except (ValueError, OSError, MemoryError) as err:
            failures[ds.id] = str(err)
    if failures:
        raise ValueError("dataset ingestion failed" + "".join(f"\n  {k}: {v}" for k, v in sorted(failures.items())))

    # About four batches of whole windows per worker: fewer round trips, still balanced.
    size = max(1, math.ceil(len(windows) / (4 * jobs)))
    chunks = [windows[i : i + size] for i in range(0, len(windows), size)]
    if jobs > 1 and len(chunks) > 1:
        # Imported here: a serial run, or one of a single batch, never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at the first submit, so it gets no more than there are batches or CPUs.
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks), os.cpu_count() or 1)) as pool:
            batches = list(pool.map(partial(_score_tasks, config.seed, config.imputers), chunks))
    else:
        batches = [_score_tasks(config.seed, config.imputers, windows)]
    records = sorted((r for batch in batches for r in batch), key=_record_sort_key)

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
        ranks = average_ranks(by_scenario, metric=config.rank_metric)
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
    return BenchReport(records=tuple(records), aggregates=tuple(aggregates), ranks=ranks, meta=meta)


def _fmt_float(x) -> str:
    return "" if x is None else repr(float(x))


def report(records, aggregates, ranks, output_dir, meta: dict | None = None) -> dict[str, Path]:
    """Write results.json, results.csv and report.md; returns the paths.

    results.json carries a content digest computed with the wall-clock
    timestamp removed, so identically-seeded runs are comparable byte for
    byte after dropping its one ``"generated_at"`` line: it holds one value
    a line. A payload JSON cannot hold is a ``ValueError`` before any write.
    """
    meta = dict(meta or {})
    payload = {
        "meta": meta,
        "records": [vars(r) for r in records],
        "aggregates": aggregates,
        "ranks": {k: float(v) for k, v in sorted(ranks.items())},
    }
    stable = json.dumps(
        {**payload, "meta": {k: v for k, v in meta.items() if k != "generated_at"}},
        sort_keys=True,
        allow_nan=False,
    )
    meta["content_digest"] = hashlib.sha256(stable.encode()).hexdigest()
    meta.setdefault("generated_at", datetime.now(timezone.utc).isoformat())

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "results.json"
    # With no indent, json writes through its C encoder.
    text = json.dumps(payload, separators=(",\n", ": "), sort_keys=True, allow_nan=False) + "\n"
    json_path.write_text(text, encoding="utf-8")

    csv_path = out / "results.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "imputer_id", "scenario_label", "n_points", "mae", "wql"])
        for r in records:
            writer.writerow(
                [r.dataset, r.imputer_id, r.scenario_label, r.n_points, _fmt_float(r.mae), _fmt_float(r.wql)]
            )

    md_path = out / "report.md"
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(_render_markdown(aggregates, ranks, meta))
    return {"json": json_path, "csv": csv_path, "markdown": md_path}


def _render_markdown(aggregates, ranks, meta) -> str:
    table = _task_table(a for a in aggregates if a.get("level", "dataset_scenario") == "dataset_scenario")
    imputers = sorted({name for row in table.values() for name in row})

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
    formats = ("**{:.4f}**", "<u>{:.4f}</u>", "{:.4f}")  # by how many scores of the row are lower: 0, 1, more
    for (dataset, scenario), row in sorted(table.items()):
        marked = {name: formats[min(sum(s < v for s in row.values()), 2)].format(v) for name, v in row.items()}
        lines.append(f"| {dataset} | {scenario} | " + " | ".join(marked.get(name, "") for name in imputers) + " |")
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
