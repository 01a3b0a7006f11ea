"""Streak image container and CSV round trips."""

import numpy as np
import pytest

from spdclum.streak import (RegionOfInterest, StreakImage, StreakParseError,
                            read_streak_csv, read_trace_csv, write_streak_csv,
                            write_trace_csv)


def _image():
    counts = np.arange(12).reshape(3, 4)
    return StreakImage(counts, [500.0, 501.0, 502.0, 503.0],
                       [0.0, 0.5, 1.0], exposure=10,
                       metadata={"seed": "7", "note": "unit test"})


def test_roundtrip_identical(tmp_path):
    img = _image()
    path = tmp_path / "img.csv"
    write_streak_csv(img, path)
    back = read_streak_csv(path)
    assert np.array_equal(back.counts, img.counts)
    assert np.array_equal(back.wavelength_axis_nm, img.wavelength_axis_nm)
    assert np.array_equal(back.time_axis_ns, img.time_axis_ns)
    assert back.exposure == 10
    assert back.metadata["seed"] == "7"
    assert back.metadata["note"] == "unit test"


def test_counts_copied_at_most_once():
    import tracemalloc

    wl, t = 300.0 + np.arange(100.0), np.arange(200.0)
    counts = np.ones((200, 100), dtype=np.int64)
    assert StreakImage(counts, wl, t, exposure=1).counts is counts
    floats = counts.astype(float)
    tracemalloc.start()
    try:
        img = StreakImage(floats, wl, t, exposure=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.counts.dtype == np.int64
    assert np.array_equal(img.counts, counts)
    # the integrality check's temporaries and one int64 conversion, not two
    assert peak < 1.5 * floats.nbytes


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _large_image():
    # counts above 256 are not Python's cached small ints
    counts = np.random.default_rng(5).integers(0, 1000, size=(400, 1000))
    return StreakImage(counts, 300.0 + 0.5 * np.arange(1000.0),
                       0.01 * np.arange(400.0), exposure=3)


def test_writer_holds_no_copy_of_the_image(tmp_path):
    img = _large_image()
    path = tmp_path / "big.csv"
    _, peak = _traced_peak(lambda: write_streak_csv(img, path))
    # the whole image's tolist() and joined text would take 4.5 x nbytes
    assert peak < img.counts.nbytes / 4, peak
    assert np.array_equal(read_streak_csv(path).counts, img.counts)


def test_reader_holds_the_image_and_one_copy_of_its_text(tmp_path):
    img = _large_image()
    path = tmp_path / "big.csv"
    write_streak_csv(img, path)
    back, peak = _traced_peak(lambda: read_streak_csv(path))
    assert np.array_equal(back.counts, img.counts)
    # the counts, which np.loadtxt grows as it reads, and the lines; the
    # tails, their joined block and its ASCII copy as well would take
    # nbytes + 3.5 x the text
    assert peak < 1.25 * img.counts.nbytes + 1.1 * path.stat().st_size, peak


def test_write_deterministic_bytes(tmp_path):
    img = _image()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_streak_csv(img, p1)
    write_streak_csv(img, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_counts_validation():
    with pytest.raises(ValueError):
        StreakImage(np.array([[1.5, 2.0]]), [1.0, 2.0], [0.0], 1)
    with pytest.raises(ValueError):
        StreakImage(-np.ones((2, 2), dtype=int), [1.0, 2.0], [0.0, 1.0], 1)
    with pytest.raises(ValueError):
        StreakImage(np.ones((2, 2), dtype=int), [2.0, 1.0], [0.0, 1.0], 1)
    with pytest.raises(ValueError):
        StreakImage(np.ones((2, 2), dtype=int), [1.0, 2.0], [0.0, 1.0], 0)
    with pytest.raises(ValueError):
        StreakImage(np.ones((3, 2), dtype=int), [1.0, 2.0], [0.0, 1.0], 1)
    # float counts that are integral are accepted and coerced
    img = StreakImage(np.ones((2, 2)), [1.0, 2.0], [0.0, 1.0], 1)
    assert img.counts.dtype == np.int64


def test_parse_error_bad_counts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# exposure = 5\n500,501\n0.0,3,x\n")
    with pytest.raises(StreakParseError) as err:
        read_streak_csv(path)
    assert "line 3" in str(err.value)


def test_parse_error_negative_counts(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# exposure = 5\n500,501\n0.0,3,-1\n1.0,2,2\n")
    with pytest.raises(StreakParseError) as err:
        read_streak_csv(path)
    assert "line 3" in str(err.value)


def test_parse_error_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# exposure = 5\n500,501\n0.0,3\n")
    with pytest.raises(StreakParseError) as err:
        read_streak_csv(path)
    assert "line 3" in str(err.value)
    assert "3 fields" in str(err.value)


def test_parse_error_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(StreakParseError):
        read_streak_csv(path)


def test_parse_error_missing_exposure(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("500,501\n0.0,3,4\n1.0,2,2\n")
    with pytest.raises(StreakParseError) as err:
        read_streak_csv(path)
    assert "exposure" in str(err.value)


def test_roi_validation():
    roi = RegionOfInterest((500.0, 503.0), (0.0, 1.0), label="x")
    assert roi.wavelength_nm == (500.0, 503.0)
    with pytest.raises(ValueError):
        RegionOfInterest((503.0, 500.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        RegionOfInterest((500.0, 503.0), (1.0, 0.0))


def test_trace_roundtrip(tmp_path):
    t = np.linspace(0.0, 5.0, 11)
    v = np.arange(11.0) * 3.5
    path = tmp_path / "trace.csv"
    write_trace_csv(path, t, v, {"kind": "test"})
    t2, v2, meta = read_trace_csv(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(v, v2)
    assert meta["kind"] == "test"


def test_blank_lines_are_skipped(tmp_path):
    # a blank or whitespace-only line anywhere reads as if it were absent
    img, path = _image(), tmp_path / "img.csv"
    write_streak_csv(img, path)
    lines = path.read_text().splitlines(keepends=True)
    spaced = "".join(f"{line}\n  \t\n" for line in lines)
    path.write_text("\n" + spaced)
    back = read_streak_csv(path)
    assert np.array_equal(back.counts, img.counts)
    assert back.metadata == img.metadata
    t, v = np.linspace(0.0, 5.0, 11), np.arange(11.0)
    write_trace_csv(tmp_path / "trace.csv", t, v, {"kind": "test"})
    text = (tmp_path / "trace.csv").read_text()
    (tmp_path / "trace.csv").write_text(text.replace("\n", "\n\n"))
    t2, v2, meta = read_trace_csv(tmp_path / "trace.csv")
    assert np.array_equal(t, t2) and np.array_equal(v, v2)
    assert meta == {"kind": "test"}


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", ","])
def test_trace_writer_refuses_unreadable_column_name(tmp_path, name):
    # the header row would split into more fields or lines than the reader
    # takes, so the writer refuses the name before writing anything
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="comma or line break"):
        write_trace_csv(path, [0.0, 1.0], [2.0, 3.0], value_column=name)
    assert not path.exists()


def test_trace_parse_errors(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time_ns,counts\n1.0,2.0,3.0\n")
    with pytest.raises(StreakParseError) as err:
        read_trace_csv(path)
    assert "line 2" in str(err.value)
    path.write_text("time_ns,counts\n")
    with pytest.raises(StreakParseError):
        read_trace_csv(path)
    path.write_text("time_ns,counts\n0.0,1.0\n1.0,1.0\n1.0,2.0\n")
    with pytest.raises(StreakParseError,
                       match="line 4: time axis must be strictly increasing"):
        read_trace_csv(path)


def test_trace_header_is_one_row_at_most(tmp_path):
    # only the first data row may be a header; a second one is a bad row
    rows = "".join(f"{t}.0,{t + 5}.0\n" for t in range(30))
    path = tmp_path / "trace.csv"
    path.write_text("# decay-trace/v1\ntime_ns,counts\nfoo,bar\nbaz,qux\n"
                    + rows)
    with pytest.raises(StreakParseError, match="line 3: bad trace row"):
        read_trace_csv(path)
    path.write_text("time_ns,counts\n" + rows)
    assert read_trace_csv(path)[0].size == 30


@pytest.mark.parametrize("reader, body", [
    (read_streak_csv, "500,501\n0.0,3,4\n1.0,2,2\n"),
    (read_trace_csv, "0.0,3.0\n1.0,2.0\n"),
], ids=["streak", "trace"])
def test_repeated_metadata_key_is_refused(tmp_path, reader, body):
    # a later value would silently replace the first, as a duplicate config
    # key would; the writers never repeat a key
    path = tmp_path / "dup.csv"
    path.write_text("# exposure = 1000\n# seed = 3\n# exposure = 7\n" + body)
    with pytest.raises(StreakParseError,
                       match="line 3: duplicate metadata key 'exposure'"):
        reader(path)


def test_axes_must_be_finite():
    ones = np.ones((2, 2), dtype=int)
    with pytest.raises(ValueError, match="wavelength axis must be finite"):
        StreakImage(ones, [1.0, np.nan], [0.0, 1.0], 1)
    with pytest.raises(ValueError, match="time axis must be finite"):
        StreakImage(ones, [1.0, 2.0], [0.0, np.inf], 1)


@pytest.mark.parametrize("text", [
    "# exposure = 5\n500,nan,502\n0.0,1,2,3\n1.0,2,2,2\n",
    "# exposure = 5\nnan,501,502\n0.0,1,2,3\n1.0,2,2,2\n",
    "# exposure = 5\n500,501,502\n0.0,1,2,3\nnan,2,2,2\n2.0,1,1,1\n",
], ids=["mid-wavelength", "first-wavelength", "time"])
def test_parse_error_nonfinite_axis(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(StreakParseError) as err:
        read_streak_csv(path)
    assert "axis must be finite" in str(err.value)


@pytest.mark.parametrize("row", ["1.0,nan", "nan,3.0", "1.0,inf",
                                 "-inf,3.0"])
def test_trace_nonfinite_row_rejected(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"time_ns,counts\n0.0,2.0\n{row}\n")
    with pytest.raises(StreakParseError) as err:
        read_trace_csv(path)
    assert "line 3" in str(err.value)
    assert "finite" in str(err.value)


@pytest.mark.parametrize("times, values", [
    ([0.0, 1.0], [np.nan, 1.0]),
    ([0.0, 1.0], [2.0, -np.inf]),
    ([np.nan], [1.0]),
    ([0.0, np.inf], [1.0, 2.0]),
], ids=["nan-value", "inf-value", "lone-nan-time", "inf-time"])
def test_trace_writer_refuses_nonfinite(tmp_path, times, values):
    # the reader refuses such rows, so the writer refuses them before
    # writing anything; a lone NaN time has no neighbour to fail the order
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="must be finite"):
        write_trace_csv(path, times, values)
    assert not path.exists()


def test_parse_error_count_beyond_int64(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"# exposure = 5\n500,501\n0.0,3,4\n1.0,2,{2**63}\n")
    with pytest.raises(StreakParseError) as err:
        read_streak_csv(path)
    assert "line 4" in str(err.value)
    assert "64-bit" in str(err.value)
    # the largest int64 count still reads, alone: the total must fit too
    path.write_text(f"# exposure = 5\n500,501\n0.0,0,0\n1.0,0,{2**63 - 1}\n")
    assert read_streak_csv(path).counts[1, 1] == 2**63 - 1


@pytest.mark.parametrize("counts, fits", [
    ([2**62, 2**62 - 1, 0, 0], True),
    ([2**62, 2**62 - 2, 1, 1], False),
    ([2**61] * 4, False),
    ([2**63 - 1, 1, 0, 0], False),
], ids=["max-total", "max-total-plus-one", "four-of-2**61", "max-count-and-one"])
def test_count_total_must_fit_int64(tmp_path, counts, fits):
    # an int64 sum of these counts wraps; the reader judges the exact total,
    # 2**63 - 1 at most
    path = tmp_path / "img.csv"
    path.write_text("# exposure = 5\n500,501\n"
                    f"0.0,{counts[0]},{counts[1]}\n1.0,{counts[2]},{counts[3]}\n")
    if fits:
        assert read_streak_csv(path).total_counts == sum(counts)
    else:
        with pytest.raises(StreakParseError,
                           match="total counts do not fit in a 64-bit integer"):
            read_streak_csv(path)


def test_in_memory_count_total_must_fit_int64():
    # an int64 sum of sixteen counts of 2**61 wraps to 0; the constructor
    # judges the exact total, as the reader does
    axes = ([500.0, 501.0, 502.0, 503.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError,
                       match="total counts do not fit in a 64-bit integer"):
        StreakImage(np.full((4, 4), 2**61), *axes, exposure=1)
    assert StreakImage(np.full((4, 4), 2**58), *axes,
                       exposure=1).total_counts == 2**62


@pytest.mark.parametrize("counts", [
    np.array([[2**63, 0], [0, 0]], dtype=np.uint64),
    np.array([[1e20, 0], [0, 0]]),
], ids=["uint64", "float"])
def test_in_memory_count_must_fit_int64(counts):
    # an unsigned or float count past int64 is refused before the cast,
    # which would wrap it negative or warn
    with pytest.raises(ValueError,
                       match="counts must fit in a 64-bit integer"):
        StreakImage(counts, [1.0, 2.0], [1.0, 2.0], 1)
    top = np.array([[2**63 - 1, 0], [0, 0]], dtype=np.uint64)
    assert StreakImage(top, [1.0, 2.0], [1.0, 2.0],
                       1).total_counts == 2**63 - 1


@pytest.mark.parametrize("metadata", [
    {"note": "a\n# exposure = 7"}, {"note": "a\rb"}, {"exposure": "7"},
    {"a=b": "c"}, {" seed": "1"}, {"seed": "1 "}, {"": "x"}])
def test_writers_refuse_metadata_that_reads_back_different(tmp_path,
                                                           metadata):
    path = tmp_path / "out.csv"
    img = _image()
    with pytest.raises(ValueError, match="would not read back unchanged"):
        write_streak_csv(StreakImage(img.counts, img.wavelength_axis_nm,
                                     img.time_axis_ns, img.exposure,
                                     metadata), path)
    assert not path.exists()
    if "exposure" not in metadata:
        with pytest.raises(ValueError, match="would not read back"):
            write_trace_csv(path, [0.0, 1.0], [2.0, 3.0], metadata)
        assert not path.exists()


def test_parse_error_binary_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe\x00binary")
    for reader in (read_streak_csv, read_trace_csv):
        with pytest.raises(StreakParseError, match="not a UTF-8 text file"):
            reader(path)


def _read(text):
    def call(tmp_path):
        path = tmp_path / "image.csv"
        path.write_text(text)
        return read_streak_csv(path)
    return call


@pytest.mark.parametrize("call, error, start", [
    (lambda tmp_path: StreakImage(np.ones(3, int), [1.0, 2.0, 3.0], [0.0], 1),
     ValueError, "counts must be a 2-d array"),
    (lambda tmp_path: write_trace_csv(tmp_path / "t.csv", [0.0, 1.0],
                                      [1.0, 2.0, 3.0]),
     ValueError, "time and value arrays must be equal-length 1-d"),
    (_read("# exposure = 5\n500,501\n"), StreakParseError,
     "no image data found"),
    (_read("# exposure = five\n500,501\n0.0,1,2\n1.0,2,2\n"),
     StreakParseError, "bad exposure value 'five'"),
], ids=["1-d-counts", "unequal-trace", "header-only", "bad-exposure"])
def test_streak_refusals(tmp_path, call, error, start):
    with pytest.raises(Exception) as err:
        call(tmp_path)
    assert err.type is error
    assert str(err.value).startswith(start)
