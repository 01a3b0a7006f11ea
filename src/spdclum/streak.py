"""Streak image container, regions of interest, and the CSV exchange format.

The CSV layout is the contract between synthesis, analysis, and the command
line tool:

    # streak-image/v1
    # seed = 42
    # exposure = 1000000
    # model_hash = <sha256 of the emission model fingerprint>
    <wavelength centers, comma separated>
    <time center>,<counts per wavelength bin...>
    ...

'#'-prefixed lines of the form ``# key = value`` are metadata; other comment
lines are ignored.  The first data row holds the wavelength bin centers, every
following row starts with its time bin center.  Writing is deterministic:
identical images serialize to identical bytes.

There is one format, defined by a per-line parser.  The reader parses the
count block in one NumPy call when every count is plain ASCII digits, as the
writer produces them; any other block, or one that call rejects, goes through
the per-line parser, which accepts what int() accepts and names the offending
line in its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import kernels


class StreakParseError(Exception):
    """Malformed streak CSV; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _format_float(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True, eq=False)
class StreakImage:
    """Wavelength-time histogram of photon counts.

    counts has shape (n_time, n_wavelength); both axes store bin centers and
    increase strictly; the counts' total fits in int64.  metadata carries
    flat string pairs (seed, exposure, model hash, warnings) and survives
    the CSV round trip.
    """

    counts: np.ndarray
    wavelength_axis_nm: np.ndarray
    time_axis_ns: np.ndarray
    exposure: int
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d array")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be nonnegative")
        wl = np.asarray(self.wavelength_axis_nm, dtype=float)
        t = np.asarray(self.time_axis_ns, dtype=float)
        if counts.shape != (t.size, wl.size):
            raise ValueError(
                f"counts shape {counts.shape} does not match axes "
                f"({t.size} times, {wl.size} wavelengths)")
        for name, axis in (("wavelength", wl), ("time", t)):
            if axis.size < 2 or np.any(np.diff(axis) <= 0):
                raise ValueError(f"{name} axis must be strictly increasing "
                                 "with at least two bins")
            # NaN compares false, so the diff test above lets it through
            if not np.all(np.isfinite(axis)):
                raise ValueError(f"{name} axis must be finite")
        if int(self.exposure) < 1:
            raise ValueError("exposure must be at least one pulse")
        counts = counts.astype(np.int64, copy=False)
        # every count fits in int64, their total need not: sums would wrap
        if not _total_fits_int64(counts):
            raise ValueError("total counts do not fit in a 64-bit integer")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "wavelength_axis_nm", wl)
        object.__setattr__(self, "time_axis_ns", t)
        object.__setattr__(self, "exposure", int(self.exposure))
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def total_counts(self) -> int:
        return int(self.counts.sum())

    def time_binwidth(self) -> float:
        return kernels.median_step(self.time_axis_ns)


@dataclass(frozen=True)
class RegionOfInterest:
    """Rectangle in (wavelength, time); bounds are inclusive on bin centers."""

    wavelength_nm: tuple[float, float]
    time_ns: tuple[float, float]
    label: str = "custom"

    def __post_init__(self):
        wlo, whi = self.wavelength_nm
        tlo, thi = self.time_ns
        if whi < wlo:
            raise ValueError(f"inverted wavelength range ({wlo}, {whi})")
        if thi < tlo:
            raise ValueError(f"inverted time range ({tlo}, {thi})")
        object.__setattr__(self, "wavelength_nm", (float(wlo), float(whi)))
        object.__setattr__(self, "time_ns", (float(tlo), float(thi)))


def write_streak_csv(image: StreakImage, path) -> None:
    """Serialize an image; byte-identical output for identical images."""
    lines = ["# streak-image/v1"]
    lines.append(f"# exposure = {image.exposure}")
    for key in sorted(image.metadata):
        lines.append(f"# {key} = {image.metadata[key]}")
    lines.append(",".join(_format_float(x) for x in image.wavelength_axis_nm))
    # %r of a Python float is _format_float, %d of a Python int is str()
    row = "%r," + ",".join(["%d"] * image.counts.shape[1])
    lines.extend(row % (t, *c) for t, c in zip(image.time_axis_ns.tolist(),
                                                image.counts.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(path, time_ns, values, metadata=None,
                    value_column: str = "counts") -> None:
    """Serialize a 1-d time trace (``# decay-trace/v1`` header).

    Same metadata conventions as the streak format; one ``time_ns,<value>``
    row per bin.  Deterministic bytes.  A value column name that would
    split the header row is refused.
    """
    if set(value_column) & set(",\r\n"):
        raise ValueError(f"value column name {value_column!r} must hold no "
                         "comma or line break")
    time_ns = np.asarray(time_ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if time_ns.shape != values.shape or time_ns.ndim != 1:
        raise ValueError("time and value arrays must be equal-length 1-d")
    lines = ["# decay-trace/v1"]
    if metadata:
        for key in sorted(metadata):
            lines.append(f"# {key} = {metadata[key]}")
    lines.append(f"time_ns,{value_column}")
    for t, v in zip(time_ns, values):
        lines.append(f"{_format_float(t)},{_format_float(v)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _data_lines(path, metadata: dict[str, str]):
    """Yield (1-based line number, stripped line) for every data line.

    Blank lines and comment lines are skipped; ``# key = value`` comments
    are collected into metadata.  A file that is not UTF-8 text raises
    StreakParseError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        key, _, value = body.partition("=")
                        if key.strip():
                            metadata[key.strip()] = value.strip()
                    continue
                yield lineno, line
        except UnicodeDecodeError as exc:
            raise StreakParseError(
                f"not a UTF-8 text file ({exc.reason})") from None


def read_trace_csv(path):
    """Parse a trace CSV -> (time_ns, values, metadata).

    Accepts an optional ``time_ns,...`` header row; values may be floats.
    Malformed or non-finite rows raise StreakParseError with the line
    number.
    """
    metadata: dict[str, str] = {}
    times: list[float] = []
    values: list[float] = []
    for lineno, line in _data_lines(path, metadata):
        fields = line.split(",")
        if len(fields) != 2:
            raise StreakParseError(
                f"expected 2 fields, got {len(fields)}", lineno)
        if not times and not values:
            try:
                float(fields[0])
            except ValueError:
                continue  # header row
        try:
            times.append(float(fields[0]))
            values.append(float(fields[1]))
        except ValueError as exc:
            raise StreakParseError(f"bad trace row: {exc}",
                                   lineno) from None
        if not (math.isfinite(times[-1]) and math.isfinite(values[-1])):
            raise StreakParseError("trace values must be finite", lineno)
    if not times:
        raise StreakParseError("no trace data found")
    return np.array(times), np.array(values), metadata


# every character of a count block as write_streak_csv writes it
_PLAIN_COUNT_BYTES = b"0123456789,\n"


def _parse_count_block(rows, n_wavelengths: int):
    """(times, counts) of the data rows in one np.loadtxt call, or None.

    Only a block of ASCII-digit counts is taken: np.loadtxt's int64 parse
    agrees with int() on those, while on other text (NumPy 2.4) it reads
    non-ASCII characters as digits and can crash.  None sends the rows to
    _parse_rows, which is then the one judge of the format.
    """
    heads, tails = [], []
    for _, line in rows:
        head, _, tail = line.partition(",")
        if not tail:  # np.loadtxt would skip the empty line
            return None
        heads.append(head)
        tails.append(tail)
    block = "\n".join(tails)
    if not block.isascii() or block.encode("ascii").translate(
            None, _PLAIN_COUNT_BYTES):
        return None
    try:
        counts = np.loadtxt(tails, delimiter=",", dtype=np.int64, ndmin=2,
                            comments=None)
        times = [float(h) for h in heads]
    except ValueError:
        return None
    if counts.shape != (len(rows), n_wavelengths):
        return None
    return times, counts


def _parse_rows(rows, n_wavelengths: int):
    """(times, counts) of the data rows, one line at a time; a malformed
    row raises StreakParseError with its line number."""
    times: list[float] = []
    counts: list[list[int]] = []
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != n_wavelengths + 1:
            raise StreakParseError(
                f"expected {n_wavelengths + 1} fields, got {len(fields)}",
                lineno)
        try:
            times.append(float(fields[0]))
        except ValueError:
            raise StreakParseError(f"bad time value {fields[0]!r}",
                                   lineno) from None
        try:
            counts.append([int(f) for f in fields[1:]])
        except ValueError:
            raise StreakParseError("counts must be integers", lineno) from None
        if min(counts[-1]) < 0:
            raise StreakParseError("counts must be nonnegative", lineno)
        if max(counts[-1]) > _INT64_MAX:
            raise StreakParseError("counts must fit in a 64-bit integer",
                                   lineno)
    return times, np.array(counts, dtype=np.int64)


def _total_fits_int64(counts: np.ndarray) -> bool:
    """Whether the sum of nonnegative int64 counts stays within int64.

    No partial sum can pass the limit when the largest count times the
    number of counts does not.  Otherwise the high and low 32-bit halves are
    summed apart, neither of which wraps below 2**31 counts, and joined as
    Python ints.
    """
    if counts.max(initial=0) <= _INT64_MAX // max(counts.size, 1):
        return True
    total = ((int(np.sum(counts >> 32)) << 32)
             + int(np.sum(counts & 0xFFFFFFFF)))
    return total <= _INT64_MAX


def read_streak_csv(path) -> StreakImage:
    """Parse a streak CSV; malformed content raises StreakParseError with a
    line number."""
    metadata: dict[str, str] = {}
    lines = list(_data_lines(path, metadata))
    if not lines:
        raise StreakParseError("no image data found")
    lineno, header = lines[0]
    try:
        wavelengths = np.array([float(f) for f in header.split(",")])
    except ValueError as exc:
        raise StreakParseError(f"bad wavelength header: {exc}",
                               lineno) from None
    rows = lines[1:]
    if not rows:
        raise StreakParseError("no image data found")
    times, counts = (_parse_count_block(rows, wavelengths.size)
                     or _parse_rows(rows, wavelengths.size))
    exposure = metadata.pop("exposure", None)
    if exposure is None:
        raise StreakParseError("missing '# exposure = N' metadata")
    try:
        exposure_n = int(exposure)
    except ValueError:
        raise StreakParseError(f"bad exposure value {exposure!r}") from None
    try:
        return StreakImage(counts, wavelengths, np.array(times), exposure_n,
                           metadata)
    except ValueError as exc:
        raise StreakParseError(str(exc)) from None
