"""Property tests of the streak and trace CSVs: bit-exact round trips, and
a streak reader that agrees with its per-line parser on any file."""

import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdclum import streak
from spdclum.streak import (StreakImage, StreakParseError, read_streak_csv,
                            read_trace_csv, write_streak_csv, write_trace_csv)

SETTINGS = settings(max_examples=150, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

_INT64_MAX = 2**63 - 1

# a metadata key or value survives the round trip when it stays on its line
# and keeps its ends; keys also hold no '=' and never shadow the exposure
_TEXT = st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\r\n"), max_size=12)
_VALUE = _TEXT.filter(lambda v: v == v.strip())
_TRACE_KEY = _VALUE.filter(lambda k: k and "=" not in k)
_KEY = _TRACE_KEY.filter(lambda k: k != "exposure")


def _axis(n):
    # spacings stay finite
    return (st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n,
                     unique=True)
            .map(sorted))


@st.composite
def images(draw):
    n_t = draw(st.integers(2, 6))
    n_wl = draw(st.integers(2, 6))
    # _INT64_MAX // 36: the largest counts whose total always fits
    top = draw(st.sampled_from([9, 10**6, _INT64_MAX // 36, _INT64_MAX]))
    counts = draw(arrays(np.int64, (n_t, n_wl),
                         elements=st.integers(0, top)))
    parts = (counts, draw(_axis(n_wl)), draw(_axis(n_t)),
             draw(st.integers(1, 10**30)),
             draw(st.dictionaries(_KEY, _VALUE, max_size=3)))
    if sum(counts.ravel().tolist()) <= _INT64_MAX:
        return StreakImage(*parts)
    # the constructor refuses a total past int64; the writer still takes
    # the fields, so the readers' refusal of such a file stays covered
    with pytest.raises(ValueError, match="total counts do not fit"):
        StreakImage(*parts)
    return SimpleNamespace(counts=counts,
                           wavelength_axis_nm=np.array(parts[1]),
                           time_axis_ns=np.array(parts[2]),
                           exposure=parts[3], metadata=parts[4])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("props") / "img.csv"


@SETTINGS
@given(img=images())
def test_write_read_write_is_byte_exact(path, img):
    write_streak_csv(img, path)
    first = path.read_bytes()
    if sum(img.counts.ravel().tolist()) > _INT64_MAX:
        # every count fits in int64 but their total does not
        with pytest.raises(StreakParseError, match="total counts do not fit"):
            read_streak_csv(path)
        return
    back = read_streak_csv(path)
    assert np.array_equal(back.counts, img.counts)
    assert np.array_equal(back.wavelength_axis_nm, img.wavelength_axis_nm)
    assert np.array_equal(back.time_axis_ns, img.time_axis_ns)
    assert (back.exposure, back.metadata) == (img.exposure, img.metadata)
    write_streak_csv(back, path)
    assert path.read_bytes() == first


def _outcome(path):
    """What reading path gives: the image's content, or the error text."""
    try:
        img = read_streak_csv(path)
    except Exception as exc:  # the reference decides what is right
        return type(exc).__name__, str(exc)
    return (img.counts.tolist(), img.wavelength_axis_nm.tolist(),
            img.time_axis_ns.tolist(), img.exposure, img.metadata)


# tokens that int() and np.loadtxt judge differently, and format breakers
_PIECES = st.sampled_from([
    "", "0", "7", "-1", "+3", " 4", "4 ", "1_000", "1.0", "1e3", "0x1f",
    str(2**63), str(_INT64_MAX), "nan", "١", "３", "Ǿ1",
    "\x1c5", "5\x1f", " 5", "\t", ",", ",,", "#", "\n", "\r", "\r\n",
    "# exposure = 3", "=", "x", "é"]) | st.text(max_size=3)


@SETTINGS
@given(img=images(), data=st.data())
def test_reader_agrees_with_per_line_parser(path, img, data):
    # a valid file with up to three spans replaced, half of them count
    # cells; either reader must give the image, or the error and line, that
    # the per-line parser gives
    write_streak_csv(img, path)
    text = path.read_text(encoding="utf-8")
    for _ in range(data.draw(st.integers(1, 3))):
        cells = [m.span() for m in re.finditer(r"(?<=,)[0-9]+(?=,|\n)", text)]
        if cells and data.draw(st.booleans()):
            i, j = data.draw(st.sampled_from(cells))
        else:
            i = data.draw(st.integers(0, len(text)))
            j = data.draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + data.draw(_PIECES) + text[j:]
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    got = _outcome(path)
    with mock.patch.object(streak, "_parse_count_block",
                           lambda rows, n_wavelengths: None):
        want = _outcome(path)
    assert got == want


# finite floats, which repr() and float() carry exactly, and their extremes
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                1.7976931348623157e308, -1.7e308]
_FLOATS = (st.sampled_from(_EDGE_FLOATS)
           | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def traces(draw):
    n = draw(st.integers(1, 12))
    return tuple(np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
                 for _ in range(2))


@SETTINGS
@given(trace=traces(),
       column=st.text(st.characters(exclude_categories=("Cs",),
                                    exclude_characters=",\r\n"),
                      max_size=8),
       metadata=st.dictionaries(_TRACE_KEY, _VALUE, max_size=3))
@example(trace=(np.array(_EDGE_FLOATS), -np.array(_EDGE_FLOATS)),
         column="counts", metadata={"kind": "trace"})
def test_trace_write_read_is_bit_exact(path, trace, column, metadata):
    times, values = trace
    write_trace_csv(path, times, values, metadata, value_column=column)
    t2, v2, meta = read_trace_csv(path)
    assert t2.tobytes() == times.tobytes()
    assert v2.tobytes() == values.tobytes()
    assert meta == metadata
