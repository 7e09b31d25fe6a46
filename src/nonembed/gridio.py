"""Grid import/export: CSV with a JSON sidecar, and a single-file JSON
variant, converting losslessly in both directions.

CSV carries `x,y,value` rows (row-major over non-exterior nodes, LF line
endings, shortest round-trip decimals); the sidecar carries origin,
extent, spacing and a run-length encoding of the node mask.  Writes are
atomic (temp file + rename), and files get mode 0666 less the umask.
Node rows go through arrays both ways: each distinct number is formatted
once per block of rows, and each distinct JSON string cell parsed once.
"""

from __future__ import annotations

import gc
import json
import os
from itertools import chain, repeat
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
    # the parse makes one list per node and no cycle for the GC to find
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise GridIOError(f"{path}: not JSON ({exc})") from None
    finally:
        if enabled:
            gc.enable()


def sidecar_path(csv_path: Union[str, Path]) -> Path:
    return Path(csv_path).with_suffix(".json")


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
    """The live nodes, row-major, as the template `row` with its three
    `{}` filled by x, y and value, each in its shortest round-trip form,
    joined per block of rows, with each distinct value formatted once."""
    head, x_y, y_v, tail = row.split("{}")
    g = f.grid
    ii, jj = np.nonzero(g.mask != EXTERIOR)
    ax, ay = g.axes()
    xs = np.array([head + repr(x) + x_y for x in ax.tolist()], dtype=object)
    ys = np.array([repr(y) + y_v for y in ay.tolist()], dtype=object)
    values = np.asarray(f.values, dtype=float)
    for s in range(0, len(ii), _BLOCK):
        i, j = ii[s:s + _BLOCK], jj[s:s + _BLOCK]
        # keyed by bits, so that -0.0 and 0.0 keep their own strings
        bits, inverse = np.unique(values[i, j].view(np.int64),
                                  return_inverse=True)
        vs = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
        yield "".join(chain.from_iterable(zip(
            xs[i].tolist(), ys[j].tolist(), vs[inverse].tolist(), repeat(tail))))


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


def _field_on_grid(grid: MaskedGrid, table, src: Path) -> ScalarField:
    """The field whose node rows are `table`, (rows, 3) floats x, y and
    value, row-major over the live nodes of `grid`."""
    ii, jj = np.nonzero(grid.mask != EXTERIOR)
    if len(ii) != len(table):
        raise GridIOError(f"{src}: {len(table)} rows for {len(ii)} live nodes")
    x = grid.origin[0] + ii * grid.h
    y = grid.origin[1] + jj * grid.h
    # written as "not within" so that a NaN coordinate fails too
    bad = np.flatnonzero(
        ~((np.abs(table[:, 0] - x) <= 1e-9 * np.maximum(1.0, np.abs(x)))
          & (np.abs(table[:, 1] - y) <= 1e-9 * np.maximum(1.0, np.abs(y)))))
    if bad.size:
        k = int(bad[0])
        raise GridIOError(f"{src}: row {k + 1} coordinate {table[k, :2].tolist()} "
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
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            if first != "x,y,value":
                raise ValueError(f"unexpected CSV header {first!r}")
            rows = _csv_rows(fh)
            row = next(rows, None)
            # loadtxt warns on an empty input; a grid may have no live node
            table = np.empty((0, 3)) if row is None else np.loadtxt(
                chain([row], rows), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:  # also a cell that is no number, or not UTF-8
        raise GridIOError(f"{path}: {exc}") from None
    return _field_on_grid(grid, table, path)


def _csv_rows(lines: Iterable[str]) -> Iterator[str]:
    """The stripped non-blank `lines`, each checked to hold three fields."""
    for k, line in enumerate(filter(None, map(str.strip, lines)), 1):
        if line.count(",") != 2:
            raise ValueError(f"row {k} has {line.count(',') + 1} fields, "
                             f"not 3: {line!r}")
        yield line


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
    try:
        table = np.fromiter(map(_Floats().__getitem__, chain.from_iterable(rows)),
                            float, 3 * len(rows)).reshape(-1, 3)
    except TypeError:
        raise GridIOError(f"{path}: a node field is not a number or a "
                          "numeric string") from None
    except (ValueError, OverflowError) as exc:
        raise GridIOError(f"{path}: {exc}") from None
    return _field_on_grid(_grid_from_header(doc["header"], path), table, path)


class _Floats(dict):
    """float(cell) of JSON node cells, parsed once per distinct string; a
    number is not kept, as a key 0.0 would also answer -0.0."""

    def __missing__(self, cell):
        if type(cell) is str:
            return self.setdefault(cell, float(cell))
        if type(cell) in (int, float):
            return float(cell)
        raise TypeError(cell)


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
