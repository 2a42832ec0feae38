"""Self-describing tensor container: the one binary format for model
checkpoints and for the score, simplex and corruption-record artifacts.

Layout: 8 magic bytes, a little-endian uint64 header length, a UTF-8 JSON
header (format tag, container version, arbitrary metadata, and a tensor
manifest with names, shapes and byte offsets), then the raw little-endian
float64 payloads in manifest order. Round trips are bit-exact, and the
header is written with sorted keys so equal contents give equal bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import TableSchema
from .errors import DataFormatError, RvaeError

MAGIC = b"RVAECKPT"
FORMAT_VERSION = 1


def write_container(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    manifest = []
    offset = 0
    payloads = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        raw = arr.tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)})
        payloads.append(raw)
        offset += len(raw)
    header = dict(meta)
    header["container_version"] = FORMAT_VERSION
    header["tensors"] = manifest
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for raw in payloads:
            fh.write(raw)


def read_container(path, fmt: str | None = None,
                   error: type[RvaeError] = DataFormatError) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container, checking its structure: magic bytes, version, the
    format tag ``fmt`` (any tag when None), and a manifest of uniquely named
    tensors that tile the payload exactly. Every fault raises ``error``."""
    what = f"an {fmt} file" if fmt else "a tensor container"
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise error(f"{path}: not {what} (bad magic bytes)")
    header_len = int.from_bytes(data[len(MAGIC): len(MAGIC) + 8], "little")
    body_start = len(MAGIC) + 8
    if len(data) < body_start + header_len:
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(data[body_start: body_start + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise error(f"{path}: the header is not a JSON object")
    if header.get("container_version") != FORMAT_VERSION:
        raise error(f"{path}: unsupported container version {header.get('container_version')} "
                    f"(this build reads version {FORMAT_VERSION})")
    if fmt is not None and header.get("format") != fmt:
        raise error(f"{path}: holds '{header.get('format')}', not {what}")
    manifest = header.pop("tensors", None)
    if not isinstance(manifest, list):
        raise error(f"{path}: the header has no tensor manifest")
    payload = memoryview(data)[body_start + header_len:]
    tensors, offset = {}, 0
    for entry in manifest:
        try:
            name, shape = entry["name"], tuple(entry["shape"])
            fits = (all(type(n) is int and n >= 0 for n in shape) and entry["offset"] == offset
                    and entry["nbytes"] == 8 * math.prod(shape))
        except (KeyError, TypeError) as exc:
            raise error(f"{path}: malformed tensor manifest: {exc!r}") from None
        if not isinstance(name, str) or name in tensors:
            raise error(f"{path}: malformed tensor manifest: tensor name {name!r} "
                        "is not a string or appears twice")
        if not fits:
            raise error(f"{path}: malformed tensor manifest: tensor '{name}' has shape "
                        f"{list(shape)}, offset {entry.get('offset')} "
                        f"and {entry.get('nbytes')} bytes")
        count = math.prod(shape)
        if offset + 8 * count > len(payload):
            raise error(f"{path}: truncated payload for tensor '{name}'")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
        offset += 8 * count
    if offset != len(payload):
        raise error(f"{path}: {len(payload) - offset} bytes follow the last tensor")
    return header, tensors


def header_schema(path, header: dict) -> TableSchema:
    """The table schema an artifact's header records."""
    try:
        return TableSchema.from_json_obj(header.get("schema"))
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: header schema: {exc}") from None


def require_tensors(path, tensors: dict[str, np.ndarray], shapes: dict[str, tuple]) -> int:
    """Check that ``tensors`` are exactly the named ``shapes``, in order. A
    None length stands for the row count, which all such tensors share;
    returns it (0 when no tensor has one)."""
    if list(tensors) != list(shapes):
        raise DataFormatError(f"{path}: holds tensors {list(tensors)}, expected {list(shapes)}")
    rows = None
    for name, shape in shapes.items():
        got = tensors[name].shape
        if rows is None and shape[:1] == (None,) and got:
            rows = got[0]
        want = tuple(rows if n is None else n for n in shape)
        if got != want:
            raise DataFormatError(f"{path}: tensor '{name}' has shape {got}, expected {want}")
    return rows or 0
