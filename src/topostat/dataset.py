"""Portable on-disk dataset format.

A dataset is a directory holding ``meta.json`` plus one raw binary file
per observation: little-endian float64, C order, exactly prod(dims)
values. An optional ``mask.bin`` of 0/1 bytes marks in-region vertices.
The format is dependency-free and bit-exact across languages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

META_NAME = "meta.json"
MASK_NAME = "mask.bin"
DTYPE_TAG = "f64le"
ORDER_TAG = "C"


@dataclass
class Dataset:
    """Descriptor of an on-disk dataset (arrays load lazily)."""

    path: Path
    dims: tuple[int, ...]
    axes: tuple[str, ...]
    units: tuple[str, ...]
    n_obs: int
    files: tuple[str, ...]
    has_mask: bool

    @property
    def n_points(self) -> int:
        return int(np.prod(self.dims))

    def load(self) -> np.ndarray:
        """All observations as an (n_obs, n_points) float64 array.

        A non-finite value inside the mask is rejected, naming its file
        and vertex; outside the mask any value is accepted.
        """
        out = np.empty((self.n_obs, self.n_points))
        mask = self.load_mask()
        for i, name in enumerate(self.files):
            _read_volume(self.path / name, out[i])
            bad = ~np.isfinite(out[i]) & mask
            if bad.any():
                v = int(np.argmax(bad))
                raise ValueError(
                    f"{self.path / name}: non-finite value {out[i, v]} inside the mask "
                    f"at vertex {v} {tuple(int(c) for c in np.unravel_index(v, self.dims))}"
                )
        return out

    def load_mask(self) -> np.ndarray:
        """Boolean in-region mask (all True when the dataset has none)."""
        if not self.has_mask:
            return np.ones(self.n_points, dtype=bool)
        raw = (self.path / MASK_NAME).read_bytes()
        if len(raw) != self.n_points:
            raise ValueError(
                f"{self.path / MASK_NAME}: {len(raw)} bytes, expected {self.n_points}"
            )
        return np.frombuffer(raw, dtype=np.uint8) != 0


def _read_volume(path: Path, out: np.ndarray) -> None:
    data = path.read_bytes()
    if len(data) != out.nbytes:
        raise ValueError(
            f"{path}: {len(data)} bytes, expected {out.nbytes} "
            f"(no silent truncation)"
        )
    out[:] = np.frombuffer(data, dtype="<f8")


def read_dataset(path) -> Dataset:
    """Open and validate a dataset directory."""
    path = Path(path)
    meta_path = path / META_NAME
    if not meta_path.is_file():
        raise ValueError(f"{path}: missing {META_NAME}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: invalid JSON ({exc})") from None
    for key in ("dims", "axes", "units", "dtype", "order", "n_obs", "files"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
    if meta["dtype"] != DTYPE_TAG:
        raise ValueError(f"{meta_path}: unsupported dtype {meta['dtype']!r}")
    if meta["order"] != ORDER_TAG:
        raise ValueError(f"{meta_path}: unsupported order {meta['order']!r}")
    dims = tuple(int(n) for n in meta["dims"])
    if any(n < 1 for n in dims) or not dims:
        raise ValueError(f"{meta_path}: bad dims {dims}")
    axes = tuple(str(a) for a in meta["axes"])
    units = tuple(str(u) for u in meta["units"])
    if len(axes) != len(dims) or len(units) != len(dims):
        raise ValueError(f"{meta_path}: axes/units must match dims")
    files = tuple(str(f) for f in meta["files"])
    n_obs = int(meta["n_obs"])
    if n_obs != len(files) or n_obs < 1:
        raise ValueError(f"{meta_path}: n_obs={n_obs} but {len(files)} files listed")
    n_points = int(np.prod(dims))
    for name in files:
        fpath = path / name
        if not fpath.is_file():
            raise ValueError(f"{path}: missing observation file {name}")
        if fpath.stat().st_size != 8 * n_points:
            raise ValueError(
                f"{fpath}: {fpath.stat().st_size} bytes, expected {8 * n_points}"
            )
    has_mask = (path / MASK_NAME).is_file()
    ds = Dataset(path=path, dims=dims, axes=axes, units=units,
                 n_obs=n_obs, files=files, has_mask=has_mask)
    if has_mask:
        ds.load_mask()  # validates length
    return ds


def write_dataset(path, volumes, axes=None, units=None, mask=None) -> Dataset:
    """Write observations to a new dataset directory.

    ``volumes`` is (n_obs, *dims) or a list of equally shaped arrays.
    """
    volumes = np.asarray(volumes, dtype=float)
    if volumes.ndim < 2:
        raise ValueError("volumes must be (n_obs, *dims)")
    n_obs = volumes.shape[0]
    dims = volumes.shape[1:]
    axes = tuple(axes) if axes else tuple(f"axis{i}" for i in range(len(dims)))
    units = tuple(units) if units else ("bins",) * len(dims)
    if len(axes) != len(dims) or len(units) != len(dims):
        raise ValueError("axes/units must match dims")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(n_obs):
        name = f"obs{i:04d}.bin"
        arr = np.ascontiguousarray(volumes[i], dtype="<f8")
        (path / name).write_bytes(arr.tobytes())
        files.append(name)
    meta = {
        "dims": list(dims),
        "axes": list(axes),
        "units": list(units),
        "dtype": DTYPE_TAG,
        "order": ORDER_TAG,
        "n_obs": n_obs,
        "files": files,
    }
    (path / META_NAME).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.size != int(np.prod(dims)):
            raise ValueError("mask length must match prod(dims)")
        (path / MASK_NAME).write_bytes(mask.astype(np.uint8).tobytes())
    return read_dataset(path)
