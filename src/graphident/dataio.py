"""Self-describing dataset container.

Layout: 4-byte magic ``GIDS``, little-endian uint32 format version,
little-endian uint32 header length, a UTF-8 ``key=value`` header (one pair
per line, carrying n, s, d, the record count, and the generator spec), then
one fixed-size payload per record: the trajectory as row-major float64
little-endian values followed by the half-vectorized ground-truth weights.
"""

from __future__ import annotations

import os
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
            fh.write(np.ascontiguousarray(r.X, dtype="<f8"))
            fh.write(np.ascontiguousarray(half_vectorize(r.W), dtype="<f8"))


def read_dataset(path) -> tuple[list[SampleRecord], dict]:
    """Parse the container back into records plus the header dict.  Each
    record is read straight into its arrays; the file is never held whole."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        preamble = fh.read(12)
        if len(preamble) < 12:
            raise SchemaError("file too short for the container preamble",
                              offset=size)
        if preamble[:4] != MAGIC:
            raise SchemaError("bad magic; not a graphident dataset", offset=0)
        version, header_len = struct.unpack("<II", preamble[4:12])
        if version != FORMAT_VERSION:
            raise SchemaError(f"unsupported dataset format version {version}",
                              offset=4)
        if size < 12 + header_len:
            raise SchemaError("truncated header", offset=size)
        text = fh.read(header_len)

        header = {}
        for line in text.decode("utf-8").splitlines():
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
        record_bytes = (n * s * d + num_edges(n)) * 8
        offset = 12 + header_len
        records = []
        for k in range(count):
            if offset + record_bytes > size:
                raise SchemaError(
                    f"truncated record {k}: expected {record_bytes} bytes",
                    offset=size)
            X = np.empty((n, s, d), dtype="<f8")
            vech = np.empty(num_edges(n), dtype="<f8")
            fh.readinto(X)
            fh.readinto(vech)
            records.append(SampleRecord(X=X, W=devectorize(vech, n),
                                        meta=dict(header, window=k)))
            offset += record_bytes
    if offset != size:
        raise SchemaError(f"{size - offset} trailing bytes after the last "
                          "record", offset=offset)
    return records, header
