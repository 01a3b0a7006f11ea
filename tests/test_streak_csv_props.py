"""Property tests of the streak and trace CSVs: bit-exact round trips, and
a streak reader that agrees with its per-line parser on any file."""

import os
import re
import tempfile
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

# metadata keys and values of any text, with the ones that cannot survive
# a file (line breaks, '=', padding, the exposure key) drawn often
_TEXT = st.text(max_size=12) | st.sampled_from(
    ["exposure", "", " a", "a ", "a=b", "a\nb", "\r", "a\x85"])
_METADATA = st.dictionaries(_TEXT, _TEXT, max_size=3)


def _reads_back(metadata, *, trace=False) -> bool:
    """Whether metadata written as plain ``# key = value`` lines reads back
    unchanged: the readers judge, not the writers' own check."""
    head, body = (("# decay-trace/v1\n", "0.0,1.0\n") if trace else
                  ("# streak-image/v1\n# exposure = 1\n",
                   "1.0,2.0\n0.0,0,0\n1.0,0,0\n"))
    lines = "".join(f"# {k} = {v}\n" for k, v in sorted(metadata.items()))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + lines + body)
        try:
            if trace:
                return read_trace_csv(path)[2] == metadata
            img = read_streak_csv(path)
        except StreakParseError:
            return False
        return (img.exposure, img.metadata) == (1, metadata)


# the pairs of a metadata draw that survive a streak file on their own
_STREAK_SAFE = _METADATA.map(lambda m: {k: v for k, v in m.items()
                                        if _reads_back({k: v})})


def _axis(n):
    # spacings stay finite
    return (st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n,
                     unique=True)
            .map(sorted))


@st.composite
def images(draw, metadata=_METADATA):
    n_t = draw(st.integers(2, 6))
    n_wl = draw(st.integers(2, 6))
    # _INT64_MAX // 36: the largest counts whose total always fits
    top = draw(st.sampled_from([9, 10**6, _INT64_MAX // 36, _INT64_MAX]))
    counts = draw(arrays(np.int64, (n_t, n_wl),
                         elements=st.integers(0, top)))
    parts = (counts, draw(_axis(n_wl)), draw(_axis(n_t)),
             draw(st.integers(1, 10**30)),
             draw(metadata))
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
    # metadata either reads back exactly or is refused before writing
    if not _reads_back(img.metadata):
        path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match="would not read back"):
            write_streak_csv(img, path)
        assert not path.exists()
        return
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
@given(img=images(_STREAK_SAFE), data=st.data())
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
    # times mostly strictly increasing, as the reader takes them
    n = draw(st.integers(1, 12))
    times = (st.lists(_FLOATS, min_size=n, max_size=n, unique=True).map(sorted)
             | st.lists(_FLOATS, min_size=n, max_size=n))
    return (np.array(draw(times)),
            np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))))


@SETTINGS
@given(trace=traces(),
       column=st.text(st.characters(exclude_categories=("Cs",),
                                    exclude_characters=",\r\n"),
                      max_size=8),
       metadata=_METADATA)
@example(trace=(np.array(_EDGE_FLOATS), -np.array(_EDGE_FLOATS)),
         column="counts", metadata={"kind": "trace"})
# the edge floats as times, in increasing order; -0.0 stands for both zeros
@example(trace=(np.sort(_EDGE_FLOATS[:1] + _EDGE_FLOATS[2:]),
                -np.sort(_EDGE_FLOATS[:1] + _EDGE_FLOATS[2:])),
         column="counts", metadata={"kind": "trace"})
def test_trace_write_read_is_bit_exact(path, trace, column, metadata):
    times, values = trace
    # times that do not increase strictly are refused before writing
    if not np.all(times[1:] > times[:-1]):
        path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match="strictly increasing"):
            write_trace_csv(path, times, values, metadata,
                            value_column=column)
        assert not path.exists()
        return
    if not _reads_back(metadata, trace=True):
        path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match="would not read back"):
            write_trace_csv(path, times, values, metadata,
                            value_column=column)
        assert not path.exists()
        return
    write_trace_csv(path, times, values, metadata, value_column=column)
    t2, v2, meta = read_trace_csv(path)
    assert t2.tobytes() == times.tobytes()
    assert v2.tobytes() == values.tobytes()
    assert meta == metadata
