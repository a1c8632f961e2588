"""The CSV number format of :func:`cvteleport.cli.write_csv` against Python's
own ``'%.17g'``: every value reads back as the identical double."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.cli import write_csv


def text(values) -> bytes:
    """What ``write_csv`` writes for ``values`` as one column, header dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.csv"
        write_csv(path, ["v"], [np.asarray(values, dtype=float)])
        header, body = path.read_bytes().split(b"\n", 1)
    assert header == b"v"
    return body


def reference(values) -> bytes:
    values = np.asarray(values, dtype=float).tolist()
    return "".join("%.17g\n" % v for v in values).encode()


def assert_matches(values):
    got, want = text(values).split(b"\n"), reference(values).split(b"\n")
    values = np.asarray(values, dtype=float).tolist()
    bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)
    # every value reads back as the same double (nan as a nan)
    for v, g in zip(values, got):
        back = float(g)
        assert back == v or (math.isnan(back) and math.isnan(v)), (v, g)
        assert math.copysign(1.0, back) == math.copysign(1.0, v) or math.isnan(v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_any_floats(values):
    assert_matches(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_patterns(bits):
    assert_matches(np.array(bits, dtype=np.uint64).view(np.float64))


def test_special_values():
    assert_matches([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                    -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    assert text([0.0, -0.0, math.nan, math.inf, -math.inf]) == \
        b"0\n-0\nnan\ninf\n-inf\n"
    assert text([5e-324, 2.2250738585072014e-308]) == \
        b"4.9406564584124654e-324\n2.2250738585072014e-308\n"


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_matches(np.concatenate([powers, np.nextafter(powers, 0),
                                   np.nextafter(powers, np.inf), -powers]))


def test_notation_edges():
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([edges, np.nextafter(edges, 0),
                             np.nextafter(edges, np.inf)])
    assert_matches(np.concatenate([values, -values]))
    assert text([1e-5, 1e-4, 1e16, 1e17]) == \
        b"1.0000000000000001e-05\n0.0001\n10000000000000000\n1e+17\n"


def test_exact_ties_round_half_even():
    # m + 1/4 and m + 3/4 with 16 integer digits have 18 significant digits,
    # the last a 5: exact ties at 17
    m = np.random.default_rng(7).integers(10 ** 15, 2 ** 52, size=1000).astype(float)
    assert_matches(np.concatenate([m + 0.25, m + 0.75, -m - 0.25]))
    assert text([1234567890123456.75, 1234567890123456.25]) == \
        b"1234567890123456.8\n1234567890123456.2\n"
    # an odd k/8 with 15 integer digits ends in 125, 375, 625 or 875 at the
    # 18th digit: an exact tie at 17
    eighths = np.arange(8 * 10 ** 14, 8 * 10 ** 14 + 4000, dtype=float) / 8
    assert_matches(np.concatenate([eighths, -eighths, np.arange(-4000, 4000) / 8.0]))


def test_integers_above_two_to_53():
    values = [float(2 ** 53 + 2 * i) for i in range(200)]
    values += [2.0 ** e for e in range(53, 1024)]
    assert_matches(values)
    assert_matches(np.arange(-10 ** 5, 10 ** 5, dtype=float) * 1e12)
    assert text([2.0 ** 53 + 2, 2.0 ** 60]) == \
        b"9007199254740994\n1.152921504606847e+18\n"


def test_trace_like_values():
    rng = np.random.default_rng(11)
    values = rng.normal(scale=5.0, size=20_000)
    values[::7] = 0.0  # a vacuum input writes columns of zeros
    values[1::7] = -0.0
    assert_matches(values)
    wide = np.exp(rng.uniform(-700, 700, size=20_000))
    assert_matches(wide * rng.choice([-1, 1], 20_000))


def test_rows_join_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1.5, -2.0, 2.5e-300], [3.0, 0.1, math.inf]])
    assert path.read_bytes() == b"a,b\n1.5,3\n-2,0.10000000000000001\n2.5e-300,inf\n"
    write_csv(path, ["a", "b"], [[], []])
    assert path.read_bytes() == b"a,b\n"


def test_columns_broadcast(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1.0, 2.0, 3.0], 0.5])
    assert path.read_bytes() == b"a,b\n1,0.5\n2,0.5\n3,0.5\n"
    # a longer column was cut to the shortest one
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [np.arange(5.0), np.arange(3.0)])

