"""Dataset container tests: lossless round-trips and malformed-file errors."""

import numpy as np
import pytest

from graphident import dataio
from graphident.datagen import SampleRecord, sample_er_graph
from graphident.errors import SchemaError


def make_records(count, n=5, s=2, d=6, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for k in range(count):
        W = sample_er_graph(n, 0.4, seed + k)
        X = rng.normal(size=(n, s, d))
        records.append(SampleRecord(X=X, W=W, meta={"kind": "test", "p": 0.4,
                                                    "window": k}))
    return records


class TestRoundTrip:
    def test_payloads_bitwise_equal(self, tmp_path):
        records = make_records(100)
        path = tmp_path / "data.gids"
        dataio.write_dataset(records, path)
        loaded, header = dataio.read_dataset(path)
        assert len(loaded) == 100
        assert header["n"] == 5 and header["s"] == 2 and header["d"] == 6
        for a, b in zip(records, loaded):
            assert np.array_equal(a.X, b.X)
            assert np.array_equal(a.W, b.W)

    def test_header_carries_spec(self, tmp_path):
        records = make_records(2)
        path = tmp_path / "data.gids"
        dataio.write_dataset(records, path, spec={"kind": "formation",
                                                  "p": 0.2, "sigma": 0.1})
        _, header = dataio.read_dataset(path)
        assert header["kind"] == "formation"
        assert header["p"] == 0.2
        assert header["sigma"] == 0.1

    def test_window_indices_restored(self, tmp_path):
        records = make_records(3)
        path = tmp_path / "data.gids"
        dataio.write_dataset(records, path)
        loaded, _ = dataio.read_dataset(path)
        assert [r.meta["window"] for r in loaded] == [0, 1, 2]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            dataio.write_dataset([], tmp_path / "x.gids")

    def test_heterogeneous_rejected(self, tmp_path):
        records = make_records(1) + make_records(1, n=6)
        with pytest.raises(SchemaError):
            dataio.write_dataset(records, tmp_path / "x.gids")


class TestMalformedFiles:
    def test_truncated_record_names_offset(self, tmp_path):
        path = tmp_path / "data.gids"
        dataio.write_dataset(make_records(2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(SchemaError) as err:
            dataio.read_dataset(path)
        assert err.value.offset == len(blob) - 40

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "data.gids"
        dataio.write_dataset(make_records(1), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(SchemaError, match="version"):
            dataio.read_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.gids"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(SchemaError, match="magic"):
            dataio.read_dataset(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "data.gids"
        path.write_bytes(b"GI")
        with pytest.raises(SchemaError):
            dataio.read_dataset(path)

    def test_missing_header_key(self, tmp_path):
        import struct
        header = b"n=5\ns=2\n"  # no d, no num_records
        path = tmp_path / "data.gids"
        path.write_bytes(b"GIDS" + struct.pack("<II", 1, len(header)) + header)
        with pytest.raises(SchemaError, match="missing"):
            dataio.read_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "data.gids"
        dataio.write_dataset(make_records(1), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(SchemaError, match="trailing"):
            dataio.read_dataset(path)
