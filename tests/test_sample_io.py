import re
import struct

import numpy as np
import pytest

from slmc.errors import InvalidInput
from slmc.sample_io import read_samples, write_samples_bin, write_samples_csv


@pytest.fixture
def sample_data():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((7, 3))
    vs = rng.standard_normal((7, 3))
    steps = np.arange(10, 17)
    return steps, xs, vs


def test_csv_roundtrip(tmp_path, sample_data):
    steps, xs, vs = sample_data
    path = tmp_path / "samples.csv"
    write_samples_csv(path, steps, xs, vs)
    got_x, got_v = read_samples(path)
    assert np.array_equal(got_x, xs)
    assert np.array_equal(got_v, vs)


def test_csv_uses_lf_endings(tmp_path, sample_data):
    steps, xs, vs = sample_data
    path = tmp_path / "samples.csv"
    write_samples_csv(path, steps, xs, vs)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "step,x0,x1,x2,v0,v1,v2"


def test_bin_roundtrip(tmp_path, sample_data):
    _, xs, vs = sample_data
    path = tmp_path / "samples.bin"
    write_samples_bin(path, xs, vs)
    got_x, got_v = read_samples(path)
    assert np.array_equal(got_x, xs)
    assert np.array_equal(got_v, vs)


def test_bin_header_layout(tmp_path, sample_data):
    _, xs, vs = sample_data
    path = tmp_path / "samples.bin"
    write_samples_bin(path, xs, vs)
    raw = path.read_bytes()
    assert raw[:4] == b"ULDS"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 3
    assert int.from_bytes(raw[12:16], "little") == 7
    assert len(raw) == 16 + 7 * 6 * 8


def test_bad_version_rejected(tmp_path, sample_data):
    _, xs, vs = sample_data
    path = tmp_path / "samples.bin"
    write_samples_bin(path, xs, vs)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(InvalidInput):
        read_samples(path)


def test_truncated_payload_rejected(tmp_path, sample_data):
    _, xs, vs = sample_data
    path = tmp_path / "samples.bin"
    write_samples_bin(path, xs, vs)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InvalidInput):
        read_samples(path)


def ulds_header(d, count):
    return struct.pack("<4sIII", b"ULDS", 1, d, count)


def test_undecodable_file_names_the_path(tmp_path):
    # neither the ULDS magic nor text: the CSV reader's UnicodeDecodeError escaped
    path = tmp_path / "garbage.dat"
    path.write_bytes(b"\xff\xfe\x00garbage")
    message = f"^{re.escape(str(path))}: neither a ULDS binary nor a text sample CSV"
    with pytest.raises(InvalidInput, match=message):
        read_samples(path)


def test_bin_zero_dimension_rejected(tmp_path):
    # d = 0 and an empty body passed the size check and read as 3 empty points
    path = tmp_path / "z.bin"
    path.write_bytes(ulds_header(0, 3))
    with pytest.raises(InvalidInput, match=f"^{re.escape(str(path))}: header gives dimension 0$"):
        read_samples(path)


def test_bin_zero_count_says_no_samples(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(ulds_header(3, 0))
    with pytest.raises(InvalidInput, match=f"^{re.escape(str(path))}: no samples$"):
        read_samples(path)
