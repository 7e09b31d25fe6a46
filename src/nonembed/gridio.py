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
from itertools import chain
from operator import methodcaller
from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from nonembed.bvp import BOUNDARY, EXTERIOR, INTERIOR, MaskedGrid, ScalarField

# node rows formatted and written per block, so a large grid never holds
# all of its lines as strings at once
_BLOCK = 1 << 16
_CSV_ROW = "{},{},{}\n"
# one node of the "nodes" list in the layout of json.dumps(indent=1),
# with the separating comma in front; the repr of a double needs no JSON
# escaping
_JSON_ROW = ',\n  [\n   "{}",\n   "{}",\n   "{}"\n  ]'


class GridIOError(ValueError):
    pass


def _mask_rle(mask: np.ndarray) -> list:
    flat = mask.ravel()
    starts = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    counts = np.diff(starts, prepend=0, append=flat.size)
    return [list(run) for run in zip(flat[np.r_[0, starts]].tolist(),
                                     counts.tolist())]


def _mask_from_rle(runs, shape: Tuple[int, int], src: Path) -> np.ndarray:
    size = shape[0] * shape[1]
    not_pairs = GridIOError(f"{src}: mask_rle is not a list of [code, count] "
                            "integer pairs")
    try:
        table = np.array(runs, ndmin=2)
    except ValueError:  # ragged
        raise not_pairs from None
    if table.shape[1:] != (2,) or table.dtype.kind not in "iu":
        raise not_pairs
    codes, counts = table[:, 0], table[:, 1]
    if not np.isin(codes, (EXTERIOR, INTERIOR, BOUNDARY)).all() or \
            ((counts < 0) | (counts > size)).any():
        raise GridIOError(f"{src}: mask_rle holds a code outside "
                          "{0, 1, 2} or a count outside [0, nodes]")
    if counts.sum() != size:
        raise GridIOError(f"{src}: mask run-length data does not match "
                          "the shape")
    return np.repeat(codes.astype(np.int8), counts).reshape(shape)


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    # os.open applies the umask to 0o666, as open() does; mkstemp would
    # leave the file at 0o600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: Union[str, Path], doc) -> None:
    """doc as JSON with sorted keys, one-space indent and a final newline."""
    _atomic_write(Path(path), [json.dumps(doc, sort_keys=True, indent=1) + "\n"])


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GridIOError(f"{path}: not JSON ({exc})") from None


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


def _node_blocks(f: ScalarField, row: str) -> Iterator[str]:
    """The live nodes, row-major, as `row.format(x, y, value)` with each
    number in its shortest round-trip form, joined per block of rows."""
    g = f.grid
    ii, jj = np.nonzero(g.mask != EXTERIOR)
    xs = [repr(x) for x in (g.origin[0] + np.arange(g.shape[0]) * g.h).tolist()]
    ys = [repr(y) for y in (g.origin[1] + np.arange(g.shape[1]) * g.h).tolist()]
    values = np.asarray(f.values, dtype=float)
    for s in range(0, len(ii), _BLOCK):
        i, j = ii[s:s + _BLOCK], jj[s:s + _BLOCK]
        yield "".join(map(row.format, map(xs.__getitem__, i.tolist()),
                          map(ys.__getitem__, j.tolist()),
                          map(repr, values[i, j].tolist())))


def _grid_from_header(header, src: Path) -> MaskedGrid:
    try:
        nx, ny = (int(n) for n in header["shape"])
        origin = (float(header["origin"][0]), float(header["origin"][1]))
        h = float(header["h"])
        subgrid_boundary = bool(header["subgrid_boundary"])
        runs = header["mask_rle"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise GridIOError(f"{src}: malformed grid header ({exc!r})") from None
    if nx < 1 or ny < 1:
        raise GridIOError(f"{src}: grid shape {[nx, ny]} is empty")
    mask = _mask_from_rle(runs, (nx, ny), src)
    try:
        return MaskedGrid(origin=origin, h=h, mask=mask,
                          subgrid_boundary=subgrid_boundary)
    except ValueError as exc:
        raise GridIOError(f"{src}: {exc}") from None


def _field_on_grid(grid: MaskedGrid, cells: list, src: Path) -> ScalarField:
    """The field whose node rows are `cells`, one flat list of 3 * rows
    strings or numbers, row-major over the live nodes of `grid`."""
    ii, jj = np.nonzero(grid.mask != EXTERIOR)
    if 3 * len(ii) != len(cells):
        raise GridIOError(
            f"{src}: {len(cells) // 3} rows for {len(ii)} live nodes")
    try:
        table = np.array(cells, dtype=float).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GridIOError(f"{src}: {exc}") from None
    x = grid.origin[0] + ii * grid.h
    y = grid.origin[1] + jj * grid.h
    # written as "not within" so that a NaN coordinate fails too
    bad = np.flatnonzero(
        ~((np.abs(table[:, 0] - x) <= 1e-9 * np.maximum(1.0, np.abs(x)))
          & (np.abs(table[:, 1] - y) <= 1e-9 * np.maximum(1.0, np.abs(y)))))
    if bad.size:
        k = int(bad[0])
        raise GridIOError(f"{src}: row {k + 1} coordinate {cells[3 * k:3 * k + 2]} "
                          f"does not match node ({float(x[k])}, {float(y[k])})")
    values = np.zeros(grid.shape)
    values[ii, jj] = table[:, 2]
    try:
        return ScalarField(grid=grid, values=values)
    except ValueError as exc:
        raise GridIOError(f"{src}: {exc}") from None


def write_grid_csv(f: ScalarField, path: Union[str, Path]) -> Path:
    """CSV (`x,y,value`, row-major, non-exterior nodes only) plus the
    JSON sidecar next to it."""
    path = Path(path)
    _atomic_write(path, chain(["x,y,value\n"], _node_blocks(f, _CSV_ROW)))
    write_json(sidecar_path(path), _header_dict(f))
    return path


def read_grid_csv(path: Union[str, Path]) -> ScalarField:
    path = Path(path)
    side = sidecar_path(path)
    if not side.exists():
        raise GridIOError(f"missing sidecar {side} for {path}")
    grid = _grid_from_header(_load_json(side), side)
    with open(path) as fh:
        first = fh.readline().strip()
        if first != "x,y,value":
            raise GridIOError(f"{path}: unexpected CSV header {first!r}")
        lines = [line for line in map(str.strip, fh.read().split("\n")) if line]
    commas = list(map(methodcaller("count", ","), lines))
    if set(commas) - {2}:
        k = next(k for k, c in enumerate(commas) if c != 2)
        raise GridIOError(f"{path}: row {k + 1} has {commas[k] + 1} fields, "
                          f"not 3: {lines[k]!r}")
    cells = ",".join(lines).split(",") if lines else []
    return _field_on_grid(grid, cells, path)


def write_grid_json(f: ScalarField, path: Union[str, Path]) -> Path:
    """Single-file JSON variant: header plus per-node rows.  The bytes are
    those of `write_json` on {"header": ..., "nodes": [[x, y, value], ...]};
    the nodes are formatted here rather than by the json encoder."""
    path = Path(path)
    head = json.dumps({"header": _header_dict(f)}, sort_keys=True, indent=1)
    head = head[:-2] + ',\n "nodes": '  # in place of the closing "\n}"
    rows = _node_blocks(f, _JSON_ROW)
    first = next(rows, None)
    if first is None:
        _atomic_write(path, [head + "[]\n}\n"])
    else:
        _atomic_write(path, chain([head, "[" + first[1:]], rows, ["\n ]\n}\n"]))
    return path


def read_grid_json(path: Union[str, Path]) -> ScalarField:
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, dict) or "header" not in doc or \
            not isinstance(doc.get("nodes"), list):
        raise GridIOError(f"{path} is not a grid JSON document")
    rows = doc["nodes"]
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {3}:
        k = next(k for k, r in enumerate(rows)
                 if type(r) is not list or len(r) != 3)
        raise GridIOError(f"{path}: node row {k + 1} is {rows[k]!r}, "
                          "not three fields")
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) - {str, int, float}:
        raise GridIOError(f"{path}: a node field is not a number or a "
                          "numeric string")
    return _field_on_grid(_grid_from_header(doc["header"], path), cells, path)


def convert_grid(src: Union[str, Path], fmt: str,
                 dst: Union[str, Path]) -> Path:
    """Convert between the CSV(+sidecar) and JSON grid formats.  A
    destination whose files would overwrite the source, the source's
    sidecar or each other is refused before anything is read."""
    src, dst = Path(src), Path(dst)
    if src.suffix not in (".csv", ".json"):
        raise GridIOError(f"unknown grid format {src.suffix!r}")
    if fmt not in ("csv", "json"):
        raise GridIOError(f"unsupported target format {fmt!r}")
    sources = {src.resolve()}
    if src.suffix == ".csv":
        sources.add(sidecar_path(src).resolve())
    targets = [dst, sidecar_path(dst)] if fmt == "csv" else [dst]
    for t in targets:
        if t.resolve() in sources:
            raise GridIOError(f"refusing to write {t}: it is the source "
                              f"{src} or its sidecar")
    if len({t.resolve() for t in targets}) < len(targets):
        raise GridIOError(f"refusing to write {dst}: a CSV destination "
                          "must not end in .json, the sidecar's suffix")
    f = read_grid_csv(src) if src.suffix == ".csv" else read_grid_json(src)
    if fmt == "csv":
        return write_grid_csv(f, dst)
    return write_grid_json(f, dst)
