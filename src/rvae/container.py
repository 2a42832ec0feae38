"""Self-describing tensor container used by model checkpoints.

Layout: 8 magic bytes, a little-endian uint64 header length, a UTF-8 JSON
header (format version, arbitrary metadata, and a tensor manifest with
names, shapes and byte offsets), then the raw little-endian float64
payloads in manifest order. Round trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CheckpointError

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


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint container (bad magic bytes)")
    header_len = int.from_bytes(data[len(MAGIC): len(MAGIC) + 8], "little")
    body_start = len(MAGIC) + 8
    if len(data) < body_start + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[body_start: body_start + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if header.get("container_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported container version {header.get('container_version')} "
            f"(this build reads version {FORMAT_VERSION})")
    payload = data[body_start + header_len:]
    tensors = {}
    try:
        for entry in header.pop("tensors"):
            start, nbytes = entry["offset"], entry["nbytes"]
            if start + nbytes > len(payload):
                raise CheckpointError(f"{path}: truncated payload for tensor '{entry['name']}'")
            arr = np.frombuffer(payload[start: start + nbytes], dtype="<f8").reshape(entry["shape"])
            tensors[entry["name"]] = arr.astype(np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed tensor manifest: {exc!r}") from exc
    return header, tensors
