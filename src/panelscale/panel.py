"""Panel container, CSV ingestion/serialization and preprocessing.

Two CSV layouts are supported:

* long: header ``unit,time,y,x1,...,xD``; every unit must carry a complete
  time sequence 1..T, and the covariate columns must agree across units at
  each time (covariates are common to all units).
* wide: header ``time,y_<label>,...,x_1,...,x_D`` with one row per time.

Files are UTF-8 with '.' as decimal separator. Numeric values are written
back with repr() so that a write/read round trip is bit-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import PanelFormatError, SingularDesignError

# cells (rows x columns) of a CSV file held as Python strings at once while
# panel_from_csv converts it
_CHUNK_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class Panel:
    """Immutable balanced panel: responses y (N x T), common covariates x (T x D)."""

    y: np.ndarray
    x: np.ndarray
    unit_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        # one fresh copy each, whatever the input's dtype
        y = np.array(self.y, dtype=float)
        x = np.array(self.x, dtype=float)
        if y.ndim != 2:
            raise PanelFormatError(f"y must be 2-D (N x T), got shape {y.shape}")
        if x.ndim != 2:
            raise PanelFormatError(f"x must be 2-D (T x D), got shape {x.shape}")
        if y.shape[1] != x.shape[0]:
            raise PanelFormatError(
                f"time dimensions disagree: y has T={y.shape[1]}, x has T={x.shape[0]}"
            )
        if y.shape[0] < 1 or x.shape[1] < 1 or y.shape[1] < 1:
            raise PanelFormatError("panel dimensions must be positive")
        if not np.all(np.isfinite(y)):
            raise PanelFormatError("y contains non-finite entries")
        if not np.all(np.isfinite(x)):
            raise PanelFormatError("x contains non-finite entries")
        if len(self.unit_labels) != y.shape[0]:
            raise PanelFormatError(
                f"{len(self.unit_labels)} labels for {y.shape[0]} units"
            )
        if len(set(self.unit_labels)) != len(self.unit_labels):
            raise PanelFormatError("unit labels must be distinct")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "unit_labels", tuple(str(s) for s in self.unit_labels))

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_time(self) -> int:
        return self.y.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]

    def require_pairs(self) -> None:
        """Pairwise comparison requires at least two units."""
        if self.n_units < 2:
            raise PanelFormatError(
                "pairwise comparison requires at least two units (N >= 2)"
            )


@dataclass(frozen=True, eq=False)
class CoefficientCurve:
    """Per-unit coefficient estimates over a set of locations at one bandwidth.

    Rows of ``values`` whose localized design was singular are NaN and listed
    in ``gaps`` together with the reason.
    """

    unit: int
    grid_locations: tuple[float, ...]
    bandwidth: float
    values: np.ndarray
    gaps: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape[0] != len(self.grid_locations):
            raise PanelFormatError("one row per location required")
        h = self.bandwidth
        for u in self.grid_locations:
            if u - h < -1e-12 or u + h > 1.0 + 1e-12:
                raise PanelFormatError(
                    f"window [u-h, u+h] leaves [0, 1] at (u={u}, h={h})"
                )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _parse_float(token: str, row: int, col: str) -> float:
    token = token.strip()
    if token == "":
        raise PanelFormatError(f"missing value in row {row}, column {col!r}")
    try:
        value = float(token)
    except ValueError:
        raise PanelFormatError(
            f"non-numeric value {token!r} in row {row}, column {col!r}"
        ) from None
    if not np.isfinite(value):
        raise PanelFormatError(f"non-finite value in row {row}, column {col!r}")
    return value


def _parse_int(token: str, row: int, col: str) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        raise PanelFormatError(
            f"non-integer value {token!r} in row {row}, column {col!r}"
        ) from None


def _time_array(times: list[int]) -> np.ndarray:
    """Times as int64, or as Python ints where one does not fit, so that an
    out-of-range time stays a coverage fault rather than an overflow."""
    try:
        return np.array(times, dtype=np.int64)
    except OverflowError:
        return np.array(times, dtype=object)


def _convert(rows: list[list[str]], header: list[str], time_col: int, start: int, path):
    """Time column as an array (see _time_array) and the columns after it as
    one float array, for data rows that begin at file row ``start``.

    On failure the cells are re-read one by one, in file order, so that the
    first bad row or cell is the one named.
    """
    width, n = len(header), time_col + 1
    if all(len(row) == width for row in rows):
        try:
            columns = list(zip(*rows))
            times = [int(t) for t in columns[time_col]]
            values = np.array(columns[n:], dtype=float).T
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return _time_array(times), values
    times, cells = [], []
    for r, row in enumerate(rows, start=start):
        if len(row) != width:
            raise PanelFormatError(
                f"{path}: row {r} has {len(row)} cells, expected {width}"
            )
        times.append(_parse_int(row[time_col], r, "time"))
        cells.append([_parse_float(c, r, col) for c, col in zip(row[n:], header[n:])])
    return _time_array(times), np.array(cells)


def _read_chunks(rows, header: list[str], time_col: int, path):
    """Convert the data rows in file order, in chunks of at most _CHUNK_CELLS
    cells, so that the first cell fault in the file is the one raised.

    Yields each chunk's first column (a long file's unit labels), times and
    values; the chunk's other strings are freed before the next is read.
    """
    step = max(1, _CHUNK_CELLS // len(header))
    start = 2
    while chunk := list(islice(rows, step)):
        times, values = _convert(chunk, header, time_col, start, path)
        start += len(chunk)
        first = [row[0] for row in chunk]
        del chunk
        yield first, times, values
    if start == 2:
        raise PanelFormatError(f"{path}: no data rows")


def _from_long(header: list[str], rows, path) -> Panel:
    if header[:3] != ["unit", "time", "y"]:
        raise PanelFormatError(
            f"{path}: long layout header must start with unit,time,y; got {header[:3]}"
        )
    x_cols = header[3:]
    expected = [f"x{d + 1}" for d in range(len(x_cols))]
    if x_cols != expected:
        raise PanelFormatError(
            f"{path}: covariate columns must be {expected}, got {x_cols}"
        )
    if not x_cols:
        raise PanelFormatError(f"{path}: long layout needs at least one x column")

    units: dict[str, int] = {}  # label -> code, in order of first appearance
    code_of: dict[str, int] = {}  # raw cell -> code, so each is stripped once
    # the distinct times so far, sorted, and the covariates of the first row
    # at each: rows are checked against them chunk by chunk, so no row's
    # covariates outlive its chunk
    known, x = np.empty(0, dtype=np.int64), np.empty((0, len(x_cols)))
    codes, times, y, differ = [], [], [], []
    for raw, t, v in _read_chunks(rows, header, 1, path):
        for cell in dict.fromkeys(raw):
            if cell not in code_of:
                code_of[cell] = units.setdefault(cell.strip(), len(units))
        codes.append(np.fromiter(map(code_of.__getitem__, raw), np.intp, len(raw)))
        times.append(t)
        y.append(v[:, 0].copy())
        known, first, rank = np.unique(
            np.concatenate([known, t]), return_index=True, return_inverse=True
        )
        x = np.concatenate([x, v[:, 1:]])[first]
        differ.append((x[rank[-len(t):]] != v[:, 1:]).any(axis=1))
    codes, times, y, differ = map(np.concatenate, (codes, times, y, differ))
    labels = tuple(units)

    # the first faulty row in file order; a stable sort finds the rows whose
    # (unit, time) an earlier row already has
    _, keyed = np.unique(
        codes * len(known) + np.searchsorted(known, times), return_index=True
    )
    duplicate = np.ones(len(codes), dtype=bool)
    duplicate[keyed] = False
    empty = units.get("", -1)
    fault = (codes == empty) | duplicate | differ
    if fault.any():
        k = int(fault.argmax())
        if codes[k] == empty:
            raise PanelFormatError(f"{path}: empty unit label in row {k + 2}")
        if duplicate[k]:
            raise PanelFormatError(
                f"{path}: duplicate (unit={labels[codes[k]]}, time={times[k]}) "
                f"at row {k + 2}"
            )
        raise PanelFormatError(
            f"{path}: covariates differ across units at time {times[k]} (row {k + 2}); "
            "covariates must be common to all units"
        )

    counts = np.bincount(codes)
    T = int(counts[0])
    ragged = np.flatnonzero(counts != T)
    if ragged.size:
        u = ragged[0]
        raise PanelFormatError(
            f"{path}: ragged series: unit {labels[0]!r} has {T} rows, "
            f"unit {labels[u]!r} has {counts[u]}"
        )
    # T distinct times per unit cover 1..T exactly when none lies outside it
    outside = (times < 1) | (times > T)
    if outside.any():
        raise PanelFormatError(
            f"{path}: unit {labels[codes[outside].min()]!r} does not cover "
            f"a complete time sequence 1..{T}"
        )

    # known is now 1..T, so x holds the covariates at times 1..T
    panel_y = np.empty((len(labels), T))
    panel_y[codes, times - 1] = y
    return Panel(y=panel_y, x=x, unit_labels=labels)


def _from_wide(header: list[str], rows, path) -> Panel:
    if not header or header[0] != "time":
        raise PanelFormatError(f"{path}: wide layout header must start with 'time'")
    y_cols = [c for c in header[1:] if c.startswith("y_")]
    x_cols = [c for c in header[1:] if not c.startswith("y_")]
    if header[1:] != y_cols + x_cols:
        raise PanelFormatError(
            f"{path}: wide layout columns must be time, y_<label>..., x_1..x_D"
        )
    expected = [f"x_{d + 1}" for d in range(len(x_cols))]
    if x_cols != expected:
        raise PanelFormatError(
            f"{path}: covariate columns must be {expected}, got {x_cols}"
        )
    if not y_cols or not x_cols:
        raise PanelFormatError(f"{path}: wide layout needs y_<label> and x_ columns")
    labels = [c[2:] for c in y_cols]
    if len(set(labels)) != len(labels):
        raise PanelFormatError(f"{path}: duplicate unit labels in header")
    times, values = [], []
    for _, t, v in _read_chunks(rows, header, 0, path):
        times.append(t)
        values.append(v)
    values = np.concatenate(values)

    seen: dict[int, int] = {}  # time -> row index
    for k, t in enumerate(np.concatenate(times).tolist()):
        if t in seen:
            raise PanelFormatError(f"{path}: duplicate time {t} at row {k + 2}")
        seen[t] = k
    T = len(seen)
    if sorted(seen) != list(range(1, T + 1)):
        raise PanelFormatError(f"{path}: time column does not cover 1..{T}")

    order = values[[seen[t] for t in range(1, T + 1)]]
    N = len(labels)
    return Panel(y=order[:, :N].T, x=order[:, N:], unit_labels=tuple(labels))


def panel_from_csv(path, layout: str = "long") -> Panel:
    """Read a panel from CSV; unit order follows first appearance in the file.

    The header is checked first; the data rows are then converted in chunks of
    at most _CHUNK_CELLS cells, so the reader holds the panel's arrays and one
    chunk of strings rather than the whole file. A leading UTF-8 byte-order
    mark, as spreadsheet exports write, is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise PanelFormatError(f"{path} is empty")
            header = [c.strip() for c in header]
            if layout == "long":
                return _from_long(header, rows, path)
            if layout == "wide":
                return _from_wide(header, rows, path)
    except OSError as exc:
        raise PanelFormatError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:  # only the reader raises it, so rows is bound
        raise PanelFormatError(f"{path}: line {rows.line_num}: {exc}") from exc
    raise PanelFormatError(f"unknown layout {layout!r}; use 'long' or 'wide'")


def panel_to_csv(panel: Panel, path, layout: str = "long") -> None:
    """Write a panel as CSV; exact inverse of panel_from_csv for both layouts."""
    if layout not in ("long", "wide"):
        raise PanelFormatError(f"unknown layout {layout!r}; use 'long' or 'wide'")
    # y is turned into strings one unit (long) or one time (wide) at a time
    x = [[repr(v) for v in row] for row in panel.x.tolist()]
    D = panel.n_covariates
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if layout == "long":
            writer.writerow(["unit", "time", "y"] + [f"x{d + 1}" for d in range(D)])
            writer.writerows(
                [label, t, yv] + xt
                for label, ys in zip(panel.unit_labels, panel.y)
                for t, (yv, xt) in enumerate(zip(map(repr, ys.tolist()), x), start=1)
            )
        else:
            writer.writerow(
                ["time"]
                + [f"y_{label}" for label in panel.unit_labels]
                + [f"x_{d + 1}" for d in range(D)]
            )
            writer.writerows(
                [t, *map(repr, ys.tolist()), *xt]
                for t, (ys, xt) in enumerate(zip(panel.y.T, x), start=1)
            )


def demean_units(panel: Panel) -> Panel:
    """Subtract each unit's time mean from its responses (fixed-effect removal)."""
    y = panel.y - panel.y.mean(axis=1, keepdims=True)
    return Panel(y=y, x=panel.x, unit_labels=panel.unit_labels)


def deseasonalize(series, lag: int, trend_degree: int) -> np.ndarray:
    """OLS residuals of series_t on (series_{t-lag}, 1, t, ..., t^trend_degree).

    The first ``lag`` observations are dropped (no pre-sample padding), so the
    output has length len(series) - lag. Residuals are orthogonal to the
    regressors by construction.
    """
    s = np.asarray(series, dtype=float).ravel()
    if lag < 1:
        raise ValueError(f"lag={lag} must be a positive integer")
    if trend_degree < 0:
        raise ValueError(f"trend_degree={trend_degree} must be nonnegative")
    n = s.size
    if n <= lag + trend_degree + 1:
        raise ValueError(
            f"series of length {n} too short for lag={lag}, degree={trend_degree}"
        )
    if not np.all(np.isfinite(s)):
        raise PanelFormatError("series contains non-finite entries")
    response = s[lag:]
    # trend rescaled to [0, 1] for conditioning; same column space as raw powers
    t = np.arange(lag + 1, n + 1, dtype=float) / n
    design = np.column_stack(
        [s[:-lag]] + [t**k for k in range(trend_degree + 1)]
    )
    # minimum-norm least squares: residuals stay well-defined even when the
    # lagged series is collinear with the trend (e.g. an exactly polynomial
    # input), in which case they are identically zero
    coef, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    resid = response - design @ coef
    if not np.all(np.isfinite(resid)):
        raise SingularDesignError("deseasonalize: least-squares solve failed")
    return resid
