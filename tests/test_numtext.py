"""The number encoders against the standard library, and the JSON and CSV
texts around their block bounds."""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leocp import numtext
from leocp.numtext import csv_blocks, json_tables
from leocp.orbits import GroundStation, WalkerShell, generate_constellation, station_positions
from leocp.topology import DistanceFields, build_snapshot, shortest_distances
from leocp.topology import write_fields_json, write_snapshots_json
from oracles import field_to_dict, snapshot_to_dict, write_json_array

STDLIB = {
    "r": lambda v: json.dumps(float(v)),
    "f": lambda v: "%.6f" % v,
    "d": str,
}


def encoded(values, kind):
    """Each value's token as ``numtext`` writes it, through a one-column CSV."""
    dtype = np.int64 if kind == "d" else np.float64
    column = np.asarray(values, dtype).reshape(-1, 1)
    text = b"".join(csv_blocks([(column, kind)])).decode()
    assert text.endswith("\r\n") or not len(column)
    return text.split("\r\n")[:-1]


def assert_stdlib(values, kind):
    values = np.asarray(values, np.int64 if kind == "d" else np.float64)
    expected = [STDLIB[kind](v) for v in values.tolist()]
    got = encoded(values, kind)
    bad = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not bad and len(got) == len(expected), bad[:5]


def floats_of(bits):
    return np.asarray(bits, np.uint64).view(np.float64)


def edge_values():
    """Powers of two and of ten and their neighbours, the ends of both
    fast ranges, integers around 2**53, halfway ``.6f`` values, zeros,
    subnormals, extremes, infinities and NaN, of both signs."""
    with np.errstate(all="ignore"):
        base = np.concatenate([
            2.0 ** np.arange(-1074, 1024),
            [float(f"1e{e}") for e in range(-323, 309)],
            [1e-2, 1e-4, 1e15, 1e16, 1e17, 2.0**33, 2.0**53 / 1e6, 2.0**53, 5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308],
            np.arange(2**53 - 40, 2**53 + 40, dtype=float),
            np.arange(-512, 512) / 128,  # .6f ties: odd multiples of 1/128
            (2.0**33 - np.arange(1, 64)) + 1 / 128,
        ])
        near = np.concatenate([base, np.nextafter(base, 0), np.nextafter(base, np.inf)])
    near = near[np.isfinite(near)]
    return np.concatenate([near, -near, [0.0, -0.0, np.inf, -np.inf, np.nan]])


@pytest.mark.parametrize("kind", ["r", "f"])
def test_edge_values_match_stdlib(kind):
    assert_stdlib(edge_values(), kind)


@pytest.mark.parametrize("kind", ["r", "f"])
@given(values=st.lists(st.floats(), max_size=64))
def test_any_float_matches_stdlib(kind, values):
    assert_stdlib(values, kind)


@pytest.mark.parametrize("kind", ["r", "f"])
@given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_any_bit_pattern_matches_stdlib(kind, bits):
    assert_stdlib(floats_of(bits), kind)


@pytest.mark.parametrize("kind", ["r", "f"])
@given(values=st.lists(st.tuples(st.floats(-1e12, 1e12), st.integers(0, 12)), max_size=64))
def test_short_decimals_match_stdlib(kind, values):
    assert_stdlib([round(x, d) for x, d in values], kind)


@given(ticks=st.lists(st.integers(-(2**41), 2**41), max_size=64),
       offsets=st.lists(st.integers(-3, 3), max_size=64))
def test_fixed_ties_and_their_neighbours_match_stdlib(ticks, offsets):
    # k / 128 ends in a 5 at the seventh decimal: an exact tie of %.6f for
    # odd k; 2**41 / 128 runs past the fast range's 2**33
    values = np.array([k * 2 + 1 for k in ticks], float) / 128
    steps = np.array((offsets + [0] * len(values))[:len(values)], float)
    toward = np.where(steps > 0, np.inf, np.where(steps < 0, -np.inf, values))
    assert_stdlib(np.nextafter(values, toward), "f")


@given(values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=64))
def test_any_int64_matches_str(values):
    assert_stdlib(values, "d")


def test_int_edges_match_str():
    tens = [10**e + d for e in range(19) for d in (-1, 0, 1)]
    assert_stdlib(tens + [-t for t in tens] + [2**63 - 1, -(2**63), 0], "d")


@pytest.mark.parametrize(
    "kind,low,high",
    [("r", 1e-2, 1e16), ("f", 0.0, 2.0**33)],
)
def test_bulk_random_bit_patterns_in_fast_range(kind, low, high):
    # 200,000 patterns whose exponent puts them in (or next to) the fast range
    rng = np.random.default_rng(22)
    n = 200_000
    low_exp = np.frexp(low)[1] + 1022 if low else 1023 - 40
    exponent = rng.integers(low_exp - 1, np.frexp(high)[1] + 1024, n, dtype=np.uint64)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    values = floats_of(sign | exponent << np.uint64(52) | mantissa)
    inside = (np.abs(values) >= low) & (np.abs(values) < high)
    assert inside.mean() > 0.9
    assert_stdlib(values, kind)


# ---------------------------------------------------------------------------
# texts across block bounds


@pytest.mark.parametrize("columns", [1, 3, 8])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_json_tables_across_block_bounds(columns, extra):
    # tables of every size up to two blocks' rows, empty ones among them,
    # so that both ends of a table land on, next to and inside a block
    rng = np.random.default_rng(columns)
    step = numtext.BLOCK // columns
    counts = [step + extra, 0, 1, step - 1, 0, step + 1, 2 * step + extra, 3, 0]
    rows = rng.uniform(-2e4, 2e4, (sum(counts), columns))
    rows[rng.random(rows.shape) < 0.05] = -1.0
    texts = json_tables([(rows, "r")], counts)
    bounds = np.cumsum([0] + counts)
    assert texts == [
        json.dumps(rows[lo:hi].tolist()).encode() for lo, hi in zip(bounds, bounds[1:])
    ]


def test_json_tables_of_mixed_kinds_and_long_tokens(monkeypatch):
    # edges as (int, int, float) rows, with fallback tokens longer than a
    # fast token, in blocks of a few rows
    monkeypatch.setattr(numtext, "BLOCK", 7)
    pairs = np.array([[0, 1], [-5, 2**62], [7, 8], [9, 10], [11, 12]])
    km = np.array([1.5, 1e300, -np.inf, 5e-324, np.nan])
    texts = json_tables([(pairs, "d"), (km[:, None], "r")], [2, 0, 3])
    assert texts == [
        json.dumps([[0, 1, 1.5], [-5, 2**62, 1e300]]).encode(),
        b"[]",
        json.dumps([[7, 8, -np.inf], [9, 10, 5e-324], [11, 12, np.nan]]).encode(),
    ]


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_csv_rows_across_block_bounds(extra):
    rng = np.random.default_rng(extra + 5)
    rows = rng.uniform(0, 1e3, (2 * (numtext.BLOCK // 2) + extra, 2))
    rows[:, 1] = np.arange(1, len(rows) + 1) / len(rows)
    blocks = list(csv_blocks([(rows, "f")]))
    assert len(blocks) == 2 + (extra > 0)
    assert b"".join(blocks) == b"".join(b"%.6f,%.6f\r\n" % tuple(r) for r in rows.tolist())


def _series(shell, stations, times):
    c = generate_constellation(shell)
    return build_snapshot(shell, c, station_positions(stations), times, min_elevation_deg=5.0)


def test_a_snapshot_split_across_blocks(tmp_path):
    # 1,600 satellites: one snapshot's positions alone pass a block
    shell = WalkerShell(40, 40, 53.0, 550.0, phasing_factor=1)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 30.0, 100.0)]
    snapshots = _series(shell, stations, [0.0, 1.0 / 3.0])
    assert 3 * snapshots[0].n_sats > numtext.BLOCK
    write_snapshots_json(snapshots, tmp_path / "new")
    write_json_array(map(snapshot_to_dict, snapshots), tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()


@pytest.mark.parametrize("block", [1, 5, 64, 200])
def test_snapshot_files_at_any_block_size(tmp_path, monkeypatch, block):
    # blocks smaller than a row, than a table and than a snapshot
    monkeypatch.setattr(numtext, "BLOCK", block)
    shell = WalkerShell(4, 3, 86.4, 780.0, raan_span_deg=180.0)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 30.0, 100.0)]
    snapshots = _series(shell, stations, [0.0, 1.0 / 3.0, 60.0, 1234.5678901234])
    write_snapshots_json(snapshots, tmp_path / "new")
    write_json_array(map(snapshot_to_dict, snapshots), tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
    fields = DistanceFields([s.t for s in snapshots], shortest_distances(snapshots))
    assert np.isinf(fields.d).any() and np.isfinite(fields.d).any()
    write_fields_json(fields, tmp_path / "new")
    write_json_array((field_to_dict(t, d) for t, d in zip(fields.times, fields.d)),
                     tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
