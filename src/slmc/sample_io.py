"""Reading and writing retained-sample files.

Two formats:

* CSV, one row per retained state: step index, the d position
  coordinates, then the d velocity coordinates, with a header line.
* Raw binary: 16-byte header (magic ``ULDS``, u32 version, u32 d,
  u32 count, all little-endian) followed by count records of 2d
  little-endian float64 values (position then velocity).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InvalidInput

MAGIC = b"ULDS"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


def write_samples_csv(path, steps: np.ndarray, xs: np.ndarray, vs: np.ndarray) -> None:
    count, d = xs.shape
    header = ["step"] + [f"x{i}" for i in range(d)] + [f"v{i}" for i in range(d)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(count):
            cells = [str(int(steps[k]))]
            cells += [f"{value:.17g}" for value in xs[k]]
            cells += [f"{value:.17g}" for value in vs[k]]
            fh.write(",".join(cells) + "\n")


def write_samples_bin(path, xs: np.ndarray, vs: np.ndarray) -> None:
    count, d = xs.shape
    records = np.hstack([xs, vs]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, d, count))
        fh.write(records.tobytes())


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Load (positions, velocities) from either format, sniffing the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return _read_bin(path)
    return _read_csv(path)


def _read_bin(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise InvalidInput(f"{path}: truncated header")
        magic, version, d, count = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise InvalidInput(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise InvalidInput(f"{path}: unsupported version {version}")
        body = np.frombuffer(fh.read(), dtype="<f8")
    if d == 0:
        raise InvalidInput(f"{path}: header gives dimension 0")
    if count == 0:
        raise InvalidInput(f"{path}: no samples")
    if body.size != count * 2 * d:
        raise InvalidInput(f"{path}: payload size does not match header")
    records = body.reshape(count, 2 * d)
    return records[:, :d].copy(), records[:, d:].copy()


def _read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInput(
            f"{path}: neither a ULDS binary nor a text sample CSV ({exc.reason})"
        ) from exc
    rows = [line for line in text.splitlines()[1:] if line.strip()]
    if not rows:
        raise InvalidInput(f"{path}: no samples")
    try:
        raw = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidInput(f"{path}: could not parse sample CSV: {exc}") from exc
    cols = raw.shape[1]
    if cols < 3 or (cols - 1) % 2 != 0:
        raise InvalidInput(f"{path}: expected columns step,x...,v..., got {cols}")
    d = (cols - 1) // 2
    return raw[:, 1 : 1 + d], raw[:, 1 + d :]
