"""Self-describing dataset container.

Layout: 4-byte magic ``GIDS``, little-endian uint32 format version,
little-endian uint32 header length, a UTF-8 ``key=value`` header (one pair
per line, carrying n, s, d, the record count, and the generator spec), then
one fixed-size payload per record: the trajectory as row-major float64
little-endian values followed by the half-vectorized ground-truth weights.
"""

from __future__ import annotations

import struct

import numpy as np

from .datagen import SampleRecord
from .errors import SchemaError
from .graphcore import devectorize, half_vectorize, num_edges

MAGIC = b"GIDS"
FORMAT_VERSION = 1


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def write_dataset(records: list[SampleRecord], path,
                  spec: dict | None = None) -> None:
    """Serialize records to the binary container.

    All records must share (n, s, d).  ``spec`` defaults to the first
    record's metadata minus its window index.
    """
    if not records:
        raise SchemaError("refusing to write an empty dataset")
    n, s, d = records[0].X.shape
    for r in records:
        if r.X.shape != (n, s, d) or r.W.shape != (n, n):
            raise SchemaError("records in one dataset must share (n, s, d)")

    if spec is None:
        spec = {k: v for k, v in records[0].meta.items() if k != "window"}
    header = {"n": n, "s": s, "d": d, "num_records": len(records)}
    header.update({k: v for k, v in spec.items() if k not in header})
    text = "".join(f"{k}={_format_value(v)}\n" for k, v in header.items())
    blob = text.encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for r in records:
            fh.write(np.ascontiguousarray(r.X, dtype="<f8").tobytes())
            fh.write(half_vectorize(r.W).astype("<f8").tobytes())


def read_dataset(path) -> tuple[list[SampleRecord], dict]:
    """Parse the container back into records plus the header dict."""
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 12:
        raise SchemaError("file too short for the container preamble",
                          offset=len(data))
    if data[:4] != MAGIC:
        raise SchemaError("bad magic; not a graphident dataset", offset=0)
    version, header_len = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported dataset format version {version}",
                          offset=4)
    if len(data) < 12 + header_len:
        raise SchemaError("truncated header", offset=len(data))

    header = {}
    for line in data[12:12 + header_len].decode("utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        header[key] = _parse_value(value)
    for key in ("n", "s", "d", "num_records"):
        if key not in header:
            raise SchemaError(f"header is missing required key {key!r}",
                              offset=12)

    n, s, d = header["n"], header["s"], header["d"]
    count = header["num_records"]
    traj_len = n * s * d
    vech_len = num_edges(n)
    record_bytes = (traj_len + vech_len) * 8

    offset = 12 + header_len
    records = []
    for k in range(count):
        end = offset + record_bytes
        if end > len(data):
            raise SchemaError(
                f"truncated record {k}: expected {record_bytes} bytes",
                offset=len(data))
        payload = np.frombuffer(data[offset:end], dtype="<f8")
        X = payload[:traj_len].reshape(n, s, d).copy()
        W = devectorize(payload[traj_len:], n)
        records.append(SampleRecord(X=X, W=W, meta=dict(header, window=k)))
        offset = end
    if offset != len(data):
        raise SchemaError(
            f"{len(data) - offset} trailing bytes after the last record",
            offset=offset)
    return records, header
