"""The vectorised CSV number format against Python's own ``'%.17g'``."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport
from cvteleport import csvfmt


def text(values) -> bytes:
    """What the kernel writes for ``values``, one per line."""
    return csvfmt.rows([csvfmt.fields(np.asarray(values, dtype=float))])


def reference(values) -> bytes:
    values = np.asarray(values, dtype=float).tolist()
    return "".join("%.17g\n" % v for v in values).encode()


def assert_matches(values):
    got, want = text(values).split(b"\n"), reference(values).split(b"\n")
    values = np.asarray(values, dtype=float).tolist()
    bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)


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
    assert text([-0.0, math.nan, -math.inf]) == b"-0\nnan\n-inf\n"


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-279, 280)])
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


def test_integers_above_two_to_53():
    values = [float(2 ** 53 + 2 * i) for i in range(200)]
    values += [2.0 ** e for e in range(53, 1024)]
    assert_matches(values)
    assert_matches(np.arange(-10 ** 5, 10 ** 5, dtype=float) * 1e12)


def test_eighths_grid_hits_the_fallback():
    # an odd k/8 with 15 integer digits ends in 125, 375, 625 or 875 at the
    # 18th digit: an exact tie at 17, which the kernel leaves to Python
    values = np.arange(8 * 10 ** 14, 8 * 10 ** 14 + 4000, dtype=float) / 8
    values = np.concatenate([values, -values, np.arange(-4000, 4000) / 8.0])
    assert_matches(values)
    a = np.abs(values[:4000])
    _, frac = csvfmt._scaled_digits(a, np.floor(np.log10(a)).astype(np.int64))
    assert np.count_nonzero(frac == 0.5) == 2000  # every odd k


def test_trace_like_values():
    rng = np.random.default_rng(11)
    values = rng.normal(scale=5.0, size=20_000)
    values[::7] = 0.0  # a vacuum input writes columns of zeros
    values[1::7] = -0.0
    assert_matches(values)
    wide = np.exp(rng.uniform(-700, 700, size=20_000))
    assert_matches(wide * rng.choice([-1, 1], 20_000))


def test_rows_join_columns():
    a, b = np.array([1.5, -2.0, 2.5e-300]), np.array([3.0, 0.1, math.inf])
    assert csvfmt.rows([csvfmt.fields(a), csvfmt.fields(b)]) == \
        b"1.5,3\n-2,0.10000000000000001\n2.5e-300,inf\n"
    assert csvfmt.rows([csvfmt.fields([]), csvfmt.fields([])]) == b""


def test_power_table_exact():
    powers = range(csvfmt._S_MIN, csvfmt._S_MIN + csvfmt._P10.shape[1])
    for row, s in enumerate(powers):
        hi, lo = csvfmt._P10[:2, row]
        exact = Fraction(10) ** s
        assert hi == float(exact)
        assert lo == float(exact - Fraction(hi))


def test_power_table_split_exact():
    hi, _, high, low = csvfmt._P10
    assert np.array_equal(high + low, hi)
    # each half has at most 26 significant bits, so their products are exact
    for part in (high, low):
        mantissa = np.frexp(part)[0] * 2.0 ** 26
        assert np.array_equal(mantissa, np.round(mantissa))


def test_import_builds_tables_without_fractions():
    src = Path(cvteleport.__file__).resolve().parents[1]
    code = "import sys, cvteleport.cli; assert 'fractions' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                            timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("size", [0, 1, csvfmt.BLOCK_VALUES])
def test_field_shape(size):
    out = csvfmt.fields(np.ones(size))
    assert out.shape == (size, csvfmt.WIDTH) and out.dtype == np.uint8
