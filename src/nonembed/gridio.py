"""Grid import/export: CSV with a JSON sidecar, and a single-file JSON
variant, converting losslessly in both directions.

CSV carries `x,y,value` rows (row-major over non-exterior nodes, LF line
endings, shortest round-trip decimals); the sidecar carries origin,
extent, spacing and a run-length encoding of the node mask.  Writes are
atomic (temp file + rename), and files get mode 0666 less the umask.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from nonembed.bvp import EXTERIOR, MaskedGrid, ScalarField


class GridIOError(ValueError):
    pass


def _mask_rle(mask: np.ndarray) -> list:
    flat = mask.ravel()
    runs = []
    start = 0
    for k in range(1, len(flat) + 1):
        if k == len(flat) or flat[k] != flat[start]:
            runs.append([int(flat[start]), k - start])
            start = k
    return runs


def _mask_from_rle(runs: list, shape: Tuple[int, int]) -> np.ndarray:
    flat = np.empty(shape[0] * shape[1], dtype=np.int8)
    pos = 0
    for code, count in runs:
        flat[pos:pos + count] = code
        pos += count
    if pos != len(flat):
        raise GridIOError("mask run-length data does not match the shape")
    return flat.reshape(shape)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # os.open applies the umask to 0o666, as open() does; mkstemp would
    # leave the file at 0o600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: Union[str, Path], doc) -> None:
    """doc as JSON with sorted keys, one-space indent and a final newline."""
    _atomic_write(Path(path), json.dumps(doc, sort_keys=True, indent=1) + "\n")


def sidecar_path(csv_path: Union[str, Path]) -> Path:
    p = Path(csv_path)
    return p.with_suffix(".json")


def _header_dict(f: ScalarField) -> dict:
    g = f.grid
    nx, ny = g.shape
    return {
        "origin": [repr(float(g.origin[0])), repr(float(g.origin[1]))],
        "extent": [repr(float((nx - 1) * g.h)), repr(float((ny - 1) * g.h))],
        "h": repr(float(g.h)),
        "shape": [int(nx), int(ny)],
        "subgrid_boundary": bool(g.subgrid_boundary),
        "mask_rle": _mask_rle(g.mask),
    }


def _field_from_header(header: dict, values_rows: list) -> ScalarField:
    shape = tuple(header["shape"])
    mask = _mask_from_rle(header["mask_rle"], shape)
    origin = (float(header["origin"][0]), float(header["origin"][1]))
    h = float(header["h"])
    grid = MaskedGrid(origin=origin, h=h, mask=mask,
                      subgrid_boundary=bool(header["subgrid_boundary"]))
    values = np.zeros(shape)
    live = np.argwhere(mask != EXTERIOR)
    if len(live) != len(values_rows):
        raise GridIOError(
            f"{len(values_rows)} rows for {len(live)} live nodes")
    for (i, j), row in zip(live, values_rows):
        x = origin[0] + i * h
        y = origin[1] + j * h
        if abs(float(row[0]) - x) > 1e-9 * max(1.0, abs(x)) or \
                abs(float(row[1]) - y) > 1e-9 * max(1.0, abs(y)):
            raise GridIOError(f"row coordinate {row[:2]} does not match "
                              f"node ({x}, {y})")
        values[i, j] = float(row[2])
    return ScalarField(grid=grid, values=values)


def write_grid_csv(f: ScalarField, path: Union[str, Path]) -> Path:
    """CSV (`x,y,value`, row-major, non-exterior nodes only) plus the
    JSON sidecar next to it."""
    path = Path(path)
    g = f.grid
    lines = ["x,y,value"]
    live = np.argwhere(g.mask != EXTERIOR)
    for (i, j) in live:
        x = float(g.origin[0] + i * g.h)
        y = float(g.origin[1] + j * g.h)
        lines.append(f"{x!r},{y!r},{float(f.values[i, j])!r}")
    _atomic_write(path, "\n".join(lines) + "\n")
    write_json(sidecar_path(path), _header_dict(f))
    return path


def read_grid_csv(path: Union[str, Path]) -> ScalarField:
    path = Path(path)
    side = sidecar_path(path)
    if not side.exists():
        raise GridIOError(f"missing sidecar {side} for {path}")
    header = json.loads(side.read_text())
    rows = []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != "x,y,value":
            raise GridIOError(f"unexpected CSV header {first!r}")
        for line in fh:
            line = line.strip()
            if line:
                rows.append(line.split(","))
    return _field_from_header(header, rows)


def write_grid_json(f: ScalarField, path: Union[str, Path]) -> Path:
    """Single-file JSON variant: header plus per-node rows."""
    path = Path(path)
    g = f.grid
    live = np.argwhere(g.mask != EXTERIOR)
    rows = []
    for (i, j) in live:
        x = g.origin[0] + i * g.h
        y = g.origin[1] + j * g.h
        rows.append([repr(float(x)), repr(float(y)), repr(float(f.values[i, j]))])
    doc = {"header": _header_dict(f), "nodes": rows}
    write_json(path, doc)
    return path


def read_grid_json(path: Union[str, Path]) -> ScalarField:
    doc = json.loads(Path(path).read_text())
    if "header" not in doc or "nodes" not in doc:
        raise GridIOError(f"{path} is not a grid JSON document")
    return _field_from_header(doc["header"], doc["nodes"])


def convert_grid(src: Union[str, Path], fmt: str,
                 dst: Union[str, Path]) -> Path:
    """Convert between the CSV(+sidecar) and JSON grid formats."""
    src = Path(src)
    if src.suffix == ".csv":
        f = read_grid_csv(src)
    elif src.suffix == ".json":
        f = read_grid_json(src)
    else:
        raise GridIOError(f"unknown grid format {src.suffix!r}")
    if fmt == "csv":
        return write_grid_csv(f, dst)
    if fmt == "json":
        return write_grid_json(f, dst)
    raise GridIOError(f"unsupported target format {fmt!r}")
