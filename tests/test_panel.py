import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from panelscale import panel as panel_module
from panelscale import (
    Panel,
    PanelFormatError,
    demean_units,
    deseasonalize,
    panel_from_csv,
    panel_to_csv,
)

FIXTURE = Path(__file__).parent / "data" / "planted_panel.csv"


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


LONG_2x3 = """unit,time,y,x1
A,1,1.0,0.5
A,2,2.0,0.25
A,3,3.0,-1.0
B,1,4.0,0.5
B,2,5.0,0.25
B,3,6.0,-1.0
"""

WIDE_2x3 = """time,y_A,y_B,x_1
1,1.0,4.0,0.5
2,2.0,5.0,0.25
3,3.0,6.0,-1.0
"""


def test_long_csv_basic(tmp_path):
    panel = panel_from_csv(write(tmp_path, LONG_2x3), "long")
    assert (panel.n_units, panel.n_time, panel.n_covariates) == (2, 3, 1)
    assert panel.unit_labels == ("A", "B")
    np.testing.assert_array_equal(panel.y, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(panel.x[:, 0], [0.5, 0.25, -1.0])


def test_wide_csv_basic(tmp_path):
    panel = panel_from_csv(write(tmp_path, WIDE_2x3), "wide")
    assert (panel.n_units, panel.n_covariates) == (2, 1)
    assert panel.unit_labels == ("A", "B")
    np.testing.assert_array_equal(panel.y, [[1, 2, 3], [4, 5, 6]])


def test_ragged_series_rejected(tmp_path):
    text = LONG_2x3.rsplit("B,3,6.0,-1.0\n", 1)[0]
    with pytest.raises(PanelFormatError, match="ragged"):
        panel_from_csv(write(tmp_path, text), "long")


def test_duplicate_key_rejected(tmp_path):
    text = LONG_2x3 + "B,3,7.0,-1.0\n"
    with pytest.raises(PanelFormatError, match="duplicate"):
        panel_from_csv(write(tmp_path, text), "long")


def test_non_numeric_cell_names_row_and_column(tmp_path):
    text = LONG_2x3.replace("5.0", "oops")
    with pytest.raises(PanelFormatError, match=r"row 6.*'y'"):
        panel_from_csv(write(tmp_path, text), "long")


def test_missing_cell_rejected(tmp_path):
    text = LONG_2x3.replace("A,2,2.0,0.25", "A,2,2.0")
    with pytest.raises(PanelFormatError, match="row 3"):
        panel_from_csv(write(tmp_path, text), "long")


def test_incomplete_time_rejected(tmp_path):
    text = LONG_2x3.replace("B,3,6.0,-1.0", "B,4,6.0,-1.0")
    with pytest.raises(PanelFormatError, match="complete"):
        panel_from_csv(write(tmp_path, text), "long")


def test_covariates_must_agree_across_units(tmp_path):
    text = LONG_2x3.replace("B,2,5.0,0.25", "B,2,5.0,0.26")
    with pytest.raises(PanelFormatError, match="differ across units"):
        panel_from_csv(write(tmp_path, text), "long")


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_roundtrip_bit_identical(tmp_path, layout):
    rng = np.random.default_rng(3)
    panel = Panel(
        y=rng.standard_normal((3, 7)) * 1e3,
        x=rng.standard_normal((7, 2)),
        unit_labels=("us", "de", "jp"),
    )
    path = tmp_path / f"{layout}.csv"
    panel_to_csv(panel, path, layout)
    back = panel_from_csv(path, layout)
    np.testing.assert_array_equal(back.y, panel.y)
    np.testing.assert_array_equal(back.x, panel.x)
    assert back.unit_labels == panel.unit_labels


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_byte_order_mark_skipped(tmp_path, layout):
    # spreadsheet "CSV UTF-8" exports start the file with a byte-order mark
    fixture = panel_from_csv(FIXTURE, "long")
    plain = FIXTURE if layout == "long" else tmp_path / "wide.csv"
    if layout == "wide":
        panel_to_csv(fixture, plain, "wide")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    back = panel_from_csv(marked, layout)
    assert bits(back.y) == bits(fixture.y)
    assert bits(back.x) == bits(fixture.x)
    assert back.unit_labels == fixture.unit_labels


def test_single_unit_roundtrip_allowed(tmp_path):
    # serialization tolerates N=1; pairwise ops do not
    panel = Panel(y=[[1.0, 2.0]], x=[[1.0], [1.0]], unit_labels=("solo",))
    path = tmp_path / "one.csv"
    panel_to_csv(panel, path, "long")
    back = panel_from_csv(path, "long")
    assert back.n_units == 1
    with pytest.raises(PanelFormatError, match="two units"):
        back.require_pairs()


def bits(a):
    """Bytes of a float array: equal only when every value, -0.0 included, is."""
    return np.ascontiguousarray(a).tobytes()


def random_panel(rng, N, T, D, labels=None, special=-0.0):
    y = rng.standard_normal((N, T)) * 10.0 ** rng.integers(-3, 4, size=(N, 1))
    x = rng.standard_normal((T, D))
    y[0, 0] = x[0, 0] = special
    return Panel(y=y, x=x, unit_labels=labels or tuple(f"u{i}" for i in range(N)))


def token(rng, v):
    """One spelling of v that float() reads back exactly."""
    v = float(v)
    plain = repr(v)
    choices = [plain, f" {plain} ", f"\t{plain}", f"{v:.17e}"]
    if not plain.startswith("-"):
        choices.append("+" + plain)
    return choices[rng.integers(len(choices))]


def long_text(rng, panel, shuffle):
    T, D = panel.n_time, panel.n_covariates
    rows = [
        [label, f" {t + 1}" if rng.random() < 0.2 else str(t + 1), token(rng, y[t])]
        + [token(rng, v) for v in panel.x[t]]
        for label, y in zip(panel.unit_labels, panel.y)
        for t in range(T)
    ]
    if shuffle:
        rows = [rows[k] for k in rng.permutation(len(rows))]
    header = ",".join(["unit", "time", "y"] + [f"x{d + 1}" for d in range(D)])
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


def wide_text(rng, panel):
    T, D = panel.n_time, panel.n_covariates
    header = ["time"] + [f"y_{u}" for u in panel.unit_labels]
    header += [f"x_{d + 1}" for d in range(D)]
    rows = [
        [str(t + 1)]
        + [token(rng, v) for v in panel.y[:, t]]
        + [token(rng, v) for v in panel.x[t]]
        for t in rng.permutation(T)
    ]
    return ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)


@pytest.mark.parametrize("seed", range(6))
def test_reader_matches_per_cell_oracle(tmp_path, seed):
    rng = np.random.default_rng(seed)
    N, T, D = int(rng.integers(1, 6)), int(rng.integers(1, 30)), int(rng.integers(1, 4))
    panel = random_panel(rng, N, T, D)
    files = [
        ("long", long_text(rng, panel, shuffle=False)),
        ("long", long_text(rng, panel, shuffle=True)),
        ("wide", wide_text(rng, panel)),
    ]
    for k, (layout, text) in enumerate(files):
        path = write(tmp_path, text, f"{k}.csv")
        got = panel_from_csv(path, layout)
        ref = oracles.naive_panel_from_csv(path, layout)
        assert got.unit_labels == ref.unit_labels
        assert bits(got.y) == bits(ref.y) and bits(got.x) == bits(ref.x)
        # a shuffled long file lists units in order of first appearance
        order = [panel.unit_labels.index(u) for u in got.unit_labels]
        assert bits(got.y) == bits(panel.y[order]) and bits(got.x) == bits(panel.x)


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_reader_accepts_python_float_spellings(tmp_path, layout):
    text = {
        "long": "unit,time,y,x1\nA, 1 , 2.5e-1 ,+1\nA,2,-0.0,1e5\n",
        "wide": "time,y_A,x_1\n2,-0.0,1e5\n 1 , 2.5e-1 ,+1\n",
    }[layout]
    path = write(tmp_path, text)
    got = panel_from_csv(path, layout)
    ref = oracles.naive_panel_from_csv(path, layout)
    assert bits(got.y) == bits(ref.y) == bits(np.array([[0.25, -0.0]]))
    assert bits(got.x) == bits(ref.x) == bits(np.array([[1.0], [1e5]]))


@pytest.mark.parametrize("layout", ["long", "wide"])
@pytest.mark.parametrize(
    "labels, special",
    [(("us", "de, fr", 'say "hi"'), -0.0), (("solo",), 1e300), (("a", "b"), -1e-300)],
)
def test_writer_bytes_match_per_cell_oracle(tmp_path, layout, labels, special):
    rng = np.random.default_rng(len(labels))
    panel = random_panel(rng, len(labels), 9, 2, labels, special)
    panel_to_csv(panel, tmp_path / "new.csv", layout)
    oracles.naive_panel_to_csv(panel, tmp_path / "ref.csv", layout)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


LONG_BASE = """unit,time,y,x1,x2
A,1,1.0,0.5,1
A,2,2.0,0.25,1
A,3,3.0,-1.0,1
B,1,4.0,0.5,1
B,2,5.0,0.25,1
B,3,6.0,-1.0,1
"""

WIDE_BASE = """time,y_A,y_B,x_1,x_2
1,1.0,4.0,0.5,1
2,2.0,5.0,0.25,1
3,3.0,6.0,-1.0,1
"""

BIG_TIME = "12345678901234567890123"

# (case, layout, text replaced, replacement, expected message)
FAULTS = [
    ("bad header", "long", "unit,time,y,", "unit,time,z,",
     "{path}: long layout header must start with unit,time,y; got ['unit', 'time', 'z']"),
    ("bad header", "wide", "time,y_A", "tim,y_A",
     "{path}: wide layout header must start with 'time'"),
    ("column order", "wide", "y_B,x_1", "x_1,y_B",
     "{path}: wide layout columns must be time, y_<label>..., x_1..x_D"),
    ("no x columns", "long", "y,x1,x2\n", "y\n",
     "{path}: long layout needs at least one x column"),
    ("no x columns", "wide", "y_B,x_1,x_2\n", "y_B\n",
     "{path}: wide layout needs y_<label> and x_ columns"),
    ("missing x column", "long", "x1,x2\n", "x2\n",
     "{path}: covariate columns must be ['x1'], got ['x2']"),
    ("missing x column", "wide", "x_1,x_2\n", "x_2\n",
     "{path}: covariate columns must be ['x_1'], got ['x_2']"),
    ("extra x column", "long", "x1,x2\n", "x1,x2,x3\n",
     "{path}: row 2 has 5 cells, expected 6"),
    ("extra x column", "wide", "x_1,x_2\n", "x_1,x_2,x_3\n",
     "{path}: row 2 has 5 cells, expected 6"),
    ("duplicate label", "wide", "y_A,y_B", "y_A,y_A",
     "{path}: duplicate unit labels in header"),
    ("no data rows", "long", LONG_BASE[LONG_BASE.index("\n") + 1:], "",
     "{path}: no data rows"),
    ("no data rows", "wide", WIDE_BASE[WIDE_BASE.index("\n") + 1:], "",
     "{path}: no data rows"),
    ("short row", "long", "A,2,2.0,0.25,1", "A,2,2.0,0.25",
     "{path}: row 3 has 4 cells, expected 5"),
    ("short row", "wide", "2,2.0,5.0,0.25,1", "2,2.0,5.0,0.25",
     "{path}: row 3 has 4 cells, expected 5"),
    ("long row", "long", "A,2,2.0,0.25,1", "A,2,2.0,0.25,1,9",
     "{path}: row 3 has 6 cells, expected 5"),
    ("long row", "wide", "2,2.0,5.0,0.25,1", "2,2.0,5.0,0.25,1,9",
     "{path}: row 3 has 6 cells, expected 5"),
    ("blank row", "long", "A,2,2.0,0.25,1\n", "A,2,2.0,0.25,1\n\n",
     "{path}: row 4 has 0 cells, expected 5"),
    ("blank row", "wide", "2,2.0,5.0,0.25,1\n", "2,2.0,5.0,0.25,1\n\n",
     "{path}: row 4 has 0 cells, expected 5"),
    ("empty label", "long", "B,2,", " ,2,",
     "{path}: empty unit label in row 6"),
    ("non-integer time", "long", "A,2,", "A,2.5,",
     "non-integer value '2.5' in row 3, column 'time'"),
    ("non-integer time", "wide", "2,2.0,", "two,2.0,",
     "non-integer value 'two' in row 3, column 'time'"),
    ("23-digit time", "long", "A,2,", f"A,{BIG_TIME},",
     "{path}: unit 'A' does not cover a complete time sequence 1..3"),
    ("23-digit time", "wide", "2,2.0,", f"{BIG_TIME},2.0,",
     "{path}: time column does not cover 1..3"),
    ("missing cell", "long", "A,2,2.0,", "A,2, ,",
     "missing value in row 3, column 'y'"),
    ("missing cell", "wide", "2,2.0,5.0,", "2,2.0,,",
     "missing value in row 3, column 'y_B'"),
    ("non-numeric cell", "long", "B,2,5.0,0.25", "B,2,5.0,oops",
     "non-numeric value 'oops' in row 6, column 'x1'"),
    ("non-numeric cell", "wide", "3,3.0,6.0,-1.0,1", "3,3.0,6.0,-1.0,0x10",
     "non-numeric value '0x10' in row 4, column 'x_2'"),
    ("nan cell", "long", "A,3,3.0,", "A,3,nan,",
     "non-finite value in row 4, column 'y'"),
    ("nan cell", "wide", "1,1.0,", "1,NaN,",
     "non-finite value in row 2, column 'y_A'"),
    ("inf cell", "long", "B,3,6.0,-1.0,1", "B,3,6.0,-1.0,-inf",
     "non-finite value in row 7, column 'x2'"),
    ("inf cell", "wide", "2,2.0,5.0,0.25,1", "2,2.0,5.0,inf,1",
     "non-finite value in row 3, column 'x_1'"),
    ("duplicate key", "long", "B,3,6.0,-1.0,1\n",
     "B,3,6.0,-1.0,1\nB,3,7.0,-1.0,1\n",
     "{path}: duplicate (unit=B, time=3) at row 8"),
    ("covariates differ", "long", "B,2,5.0,0.25", "B,2,5.0,0.26",
     "{path}: covariates differ across units at time 2 (row 6); "
     "covariates must be common to all units"),
    ("ragged series", "long", "B,3,6.0,-1.0,1\n", "",
     "{path}: ragged series: unit 'A' has 3 rows, unit 'B' has 2"),
    ("incomplete time", "long", "B,3,", "B,4,",
     "{path}: unit 'B' does not cover a complete time sequence 1..3"),
    ("duplicate time", "wide", "3,3.0,", "2,3.0,",
     "{path}: duplicate time 2 at row 4"),
    ("time gap", "wide", "3,3.0,", "4,3.0,",
     "{path}: time column does not cover 1..3"),
]


@pytest.mark.parametrize(
    "layout, old, new, message",
    [case[1:] for case in FAULTS],
    ids=[f"{case[1]}-{case[0]}".replace(" ", "-") for case in FAULTS],
)
def test_single_fault_message(tmp_path, layout, old, new, message):
    base = LONG_BASE if layout == "long" else WIDE_BASE
    assert base.count(old) == 1
    path = write(tmp_path, base.replace(old, new))
    with pytest.raises(PanelFormatError) as exc:
        panel_from_csv(path, layout)
    assert str(exc.value) == message.format(path=path)
    if not message.endswith("no data rows"):
        with pytest.raises(PanelFormatError) as ref:
            oracles.naive_panel_from_csv(path, layout)
        assert str(ref.value) == str(exc.value)


def test_cell_fault_reported_before_structure_fault(tmp_path):
    # conversion runs over the whole file before the per-row structure checks
    text = LONG_BASE.replace("A,3,", "A,2,").replace("B,3,6.0,", "B,3,x,")
    with pytest.raises(PanelFormatError) as exc:
        panel_from_csv(write(tmp_path, text), "long")
    assert str(exc.value) == "non-numeric value 'x' in row 7, column 'y'"


@pytest.mark.parametrize("layout", ["long", "wide"])
def test_valid_file_skips_per_cell_parsers(tmp_path, monkeypatch, layout):
    def refuse(*args):
        raise AssertionError("per-cell parser called on a valid file")

    monkeypatch.setattr(panel_module, "_parse_float", refuse)
    monkeypatch.setattr(panel_module, "_parse_int", refuse)
    base = LONG_BASE if layout == "long" else WIDE_BASE
    panel = panel_from_csv(write(tmp_path, base), layout)
    assert panel.unit_labels == ("A", "B")


def chunk_rows(monkeypatch, path, rows):
    """Make panel_from_csv convert ``path`` in chunks of ``rows`` data rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        width = len(next(csv.reader(fh)))
    monkeypatch.setattr(panel_module, "_CHUNK_CELLS", rows * width)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_small_chunks_match_per_cell_oracle(tmp_path, monkeypatch, seed, rows):
    # the files of test_reader_matches_per_cell_oracle
    rng = np.random.default_rng(seed)
    N, T, D = int(rng.integers(1, 6)), int(rng.integers(1, 30)), int(rng.integers(1, 4))
    panel = random_panel(rng, N, T, D)
    files = [
        ("long", long_text(rng, panel, shuffle=False)),
        ("long", long_text(rng, panel, shuffle=True)),
        ("wide", wide_text(rng, panel)),
    ]
    for k, (layout, text) in enumerate(files):
        path = write(tmp_path, text, f"{k}.csv")
        chunk_rows(monkeypatch, path, rows)
        got = panel_from_csv(path, layout)
        ref = oracles.naive_panel_from_csv(path, layout)
        assert got.unit_labels == ref.unit_labels
        assert bits(got.y) == bits(ref.y) and bits(got.x) == bits(ref.x)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize(
    "layout, old, new, message",
    [case[1:] for case in FAULTS],
    ids=[f"{case[1]}-{case[0]}".replace(" ", "-") for case in FAULTS],
)
def test_single_fault_message_in_small_chunks(
    tmp_path, monkeypatch, layout, old, new, message, rows
):
    base = LONG_BASE if layout == "long" else WIDE_BASE
    path = write(tmp_path, base.replace(old, new))
    chunk_rows(monkeypatch, path, rows)
    with pytest.raises(PanelFormatError) as exc:
        panel_from_csv(path, layout)
    assert str(exc.value) == message.format(path=path)
    if not message.endswith("no data rows"):
        with pytest.raises(PanelFormatError) as ref:
            oracles.naive_panel_from_csv(path, layout)
        assert str(ref.value) == str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        # rows 2 and 8 share (A, 1): chunks are rows 2-4, 5-7 and 8
        (LONG_BASE + "A,1,1.5,0.5,1\n", "{path}: duplicate (unit=A, time=1) at row 8"),
        # row 5 opens the second chunk and disagrees with row 2
        (
            LONG_BASE.replace("B,1,4.0,0.5,", "B,1,4.0,0.75,"),
            "{path}: covariates differ across units at time 1 (row 5); "
            "covariates must be common to all units",
        ),
    ],
    ids=["duplicate-across-chunks", "covariates-differ-at-chunk-start"],
)
def test_structure_fault_across_chunk_boundary(tmp_path, monkeypatch, text, message):
    path = write(tmp_path, text)
    chunk_rows(monkeypatch, path, 3)
    with pytest.raises(PanelFormatError) as exc:
        panel_from_csv(path, "long")
    assert str(exc.value) == message.format(path=path)
    with pytest.raises(PanelFormatError) as ref:
        oracles.naive_panel_from_csv(path, "long")
    assert str(ref.value) == str(exc.value)


@pytest.mark.parametrize("rows", [1, 2])
def test_cell_fault_in_later_chunk_reported_first(tmp_path, monkeypatch, rows):
    # the duplicate at row 4 is in an earlier chunk than the bad cell at row 7
    text = LONG_BASE.replace("A,3,", "A,2,").replace("B,3,6.0,", "B,3,x,")
    path = write(tmp_path, text)
    chunk_rows(monkeypatch, path, rows)
    with pytest.raises(PanelFormatError) as exc:
        panel_from_csv(path, "long")
    assert str(exc.value) == "non-numeric value 'x' in row 7, column 'y'"


def test_reader_memory_stays_near_the_panel(tmp_path):
    # a 50-unit, 500-period, 3-covariate long file of 1.8 MB (25,000 rows)
    # holds a 0.21 MB panel; reading it must not hold the file's rows as
    # Python strings (which peaked at 15.4 MiB)
    rng = np.random.default_rng(1)
    panel = Panel(
        y=rng.standard_normal((50, 500)),
        x=rng.standard_normal((500, 3)),
        unit_labels=tuple(f"unit{i}" for i in range(50)),
    )
    path = tmp_path / "big.csv"
    panel_to_csv(panel, path, "long")
    tracemalloc.start()
    try:
        back = panel_from_csv(path, "long")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(back.y) == bits(panel.y) and bits(back.x) == bits(panel.x)
    assert peak <= 5 * 2**20, f"panel_from_csv peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("y", [[[1.0, 2.0]], [[1, 2]]], ids=["float", "int"])
def test_panel_holds_its_own_read_only_copy(y):
    source = np.array(y)
    panel = Panel(y=source, x=[[1.0], [1.0]], unit_labels=("a",))
    assert panel.y.dtype == np.float64
    assert not np.shares_memory(panel.y, source)
    assert not panel.y.flags.writeable and not panel.x.flags.writeable


def test_panel_rejects_nan():
    with pytest.raises(PanelFormatError, match="non-finite"):
        Panel(y=[[1.0, np.nan]], x=[[1.0], [1.0]], unit_labels=("a",))


def test_panel_rejects_duplicate_labels():
    with pytest.raises(PanelFormatError, match="distinct"):
        Panel(y=[[1.0], [2.0]], x=[[1.0]], unit_labels=("a", "a"))


def test_demean_basic():
    panel = Panel(
        y=[[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]],
        x=[[1.0], [1.0], [1.0]],
        unit_labels=("a", "b"),
    )
    out = demean_units(panel)
    np.testing.assert_allclose(out.y[0], [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(out.y[1], [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(out.x, panel.x)


def test_demean_idempotent():
    rng = np.random.default_rng(11)
    panel = Panel(
        y=rng.standard_normal((4, 50)) + 7.0,
        x=rng.standard_normal((50, 2)),
        unit_labels=tuple("abcd"),
    )
    once = demean_units(panel)
    twice = demean_units(once)
    scale = np.abs(panel.y).max()
    assert np.abs(once.y.mean(axis=1)).max() <= 1e-12 * scale
    np.testing.assert_allclose(twice.y, once.y, atol=1e-12 * scale)


def test_deseasonalize_exact_quadratic():
    n = 60
    t = np.arange(1, n + 1, dtype=float)
    series = 2.0 + 0.3 * t + 0.01 * t * t
    resid = deseasonalize(series, lag=4, trend_degree=2)
    assert resid.shape == (n - 4,)
    assert np.abs(resid).max() < 1e-8 * np.abs(series).max()


def test_deseasonalize_white_noise_variance():
    rng = np.random.default_rng(5)
    series = rng.standard_normal(400)
    resid = deseasonalize(series, lag=4, trend_degree=2)
    ratio = resid.var() / series.var()
    assert 0.8 < ratio < 1.2


def test_deseasonalize_orthogonality():
    rng = np.random.default_rng(8)
    series = rng.standard_normal(200).cumsum()
    lag, deg = 4, 2
    resid = deseasonalize(series, lag, deg)
    n = series.size
    t = np.arange(lag + 1, n + 1, dtype=float) / n
    design = np.column_stack([series[:-lag]] + [t**k for k in range(deg + 1)])
    scale = np.abs(series).max() * np.abs(design).max() * len(resid)
    assert np.abs(design.T @ resid).max() <= 1e-8 * scale


def test_deseasonalize_polynomial_invariance():
    rng = np.random.default_rng(9)
    series = rng.standard_normal(150)
    t = np.arange(1, 151, dtype=float)
    poly = 3.0 - 0.2 * t + 0.004 * t * t
    base = deseasonalize(series, 4, 2)
    shifted = deseasonalize(series + poly, 4, 2)
    scale = max(np.abs(series + poly).max(), 1.0)
    np.testing.assert_allclose(shifted, base, atol=1e-8 * scale)


def test_deseasonalize_too_short():
    with pytest.raises(ValueError, match="too short"):
        deseasonalize(np.ones(5), lag=4, trend_degree=2)


def test_deseasonalize_collinear_input_residuals_vanish():
    # constant series: the lag column duplicates the intercept, but the
    # minimum-norm fit still reproduces the series exactly
    resid = deseasonalize(np.ones(100), lag=4, trend_degree=2)
    assert np.abs(resid).max() < 1e-10
