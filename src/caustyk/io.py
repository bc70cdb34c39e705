"""File formats for matrices, Choi maps, and decomposition pairs.

JSON is the readable default: every complex entry is a two-element
``[re, im]`` list, a matrix is a list of rows, a Choi map is
``{"in_dims": [...], "out_dims": [...], "J": rows}`` and a pair is
``{"rho": choi, "sigma": choi, "z_dim": n}``.

The raw format is the fast path: the file holds the matrix as flat
little-endian complex128 (interleaved float64 re, im) in row-major order,
and the shape lives in a JSON sidecar at ``<file>.dims`` holding either
``{"shape": [r, c]}`` or the Choi dims object above.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cpmaps import ChoiMap
from .errors import ShapeMismatchError
from .signalling import DecompPair

__all__ = [
    "complex_to_json", "json_to_complex",
    "load_matrix", "save_matrix",
    "load_choi", "save_choi", "choi_to_json", "choi_from_json",
    "load_pair", "save_pair", "pair_to_json", "pair_from_json",
]


def complex_to_json(arr: np.ndarray) -> list:
    arr = np.atleast_2d(np.asarray(arr, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ShapeMismatchError("matrix entries must be finite numbers")
    return arr


def json_to_complex(rows) -> np.ndarray:
    try:
        out = np.array([[complex(entry[0], entry[1]) for entry in row]
                        for row in rows])
    except (TypeError, IndexError) as err:
        raise ShapeMismatchError(
            "matrix entries must be [re, im] pairs") from err
    return _finite(out)


def _read_sidecar(path: str) -> dict:
    side = Path(str(path) + ".dims")
    if not side.exists():
        raise FileNotFoundError(
            f"raw format needs a dims sidecar at {side}")
    return json.loads(side.read_text())


def _raw_read(path: str) -> np.ndarray:
    return _finite(np.fromfile(path, dtype="<c16"))


def _raw_write(path: str, arr: np.ndarray) -> None:
    np.asarray(arr, dtype=complex).astype("<c16").tofile(path)


def load_matrix(path: str, fmt: str = "json") -> np.ndarray:
    if fmt == "raw":
        meta = _read_sidecar(path)
        r, c = (int(v) for v in meta["shape"])
        flat = _raw_read(path)
        if flat.size != r * c:
            raise ShapeMismatchError(
                f"raw file holds {flat.size} entries, sidecar says {r}x{c}")
        return flat.reshape(r, c)
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data["matrix"]
    return json_to_complex(data)


def save_matrix(path: str, arr: np.ndarray, fmt: str = "json") -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=complex))
    if fmt == "raw":
        _raw_write(path, arr.ravel())
        Path(str(path) + ".dims").write_text(
            json.dumps({"shape": list(arr.shape)}))
        return
    Path(path).write_text(json.dumps({"matrix": complex_to_json(arr)}))


def choi_to_json(cm: ChoiMap) -> dict:
    return {
        "in_dims": [int(d) for d in cm.in_dims],
        "out_dims": [int(d) for d in cm.out_dims],
        "J": complex_to_json(cm.J),
    }


def choi_from_json(data: dict, *, validate: bool = False) -> ChoiMap:
    return ChoiMap(tuple(int(d) for d in data["out_dims"]),
                   tuple(int(d) for d in data["in_dims"]),
                   json_to_complex(data["J"]), validate=validate)


def load_choi(path: str, fmt: str = "json") -> ChoiMap:
    if fmt == "raw":
        meta = _read_sidecar(path)
        out_dims = tuple(int(d) for d in meta["out_dims"])
        in_dims = tuple(int(d) for d in meta["in_dims"])
        n = int(np.prod(out_dims + in_dims))
        flat = _raw_read(path)
        if flat.size != n * n:
            raise ShapeMismatchError(
                f"raw file holds {flat.size} entries, dims want {n}x{n}")
        return ChoiMap(out_dims, in_dims, flat.reshape(n, n), validate=False)
    data = json.loads(Path(path).read_text())
    return choi_from_json(data)


def save_choi(path: str, cm: ChoiMap, fmt: str = "json") -> None:
    if fmt == "raw":
        _raw_write(path, cm.J.ravel())
        Path(str(path) + ".dims").write_text(json.dumps(
            {"in_dims": list(cm.in_dims), "out_dims": list(cm.out_dims)}))
        return
    Path(path).write_text(json.dumps(choi_to_json(cm)))


def pair_to_json(pair: DecompPair) -> dict:
    return {
        "rho": choi_to_json(pair.rho),
        "sigma": choi_to_json(pair.sigma),
        "z_dim": int(pair.z_dim),
    }


def pair_from_json(data: dict) -> DecompPair:
    return DecompPair(rho=choi_from_json(data["rho"]),
                      sigma=choi_from_json(data["sigma"]),
                      z_dim=int(data["z_dim"]))


def load_pair(path: str) -> DecompPair:
    return pair_from_json(json.loads(Path(path).read_text()))


def save_pair(path: str, pair: DecompPair) -> None:
    Path(path).write_text(json.dumps(pair_to_json(pair)))
