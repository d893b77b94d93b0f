"""Portable on-disk dataset format.

A dataset is a directory holding ``meta.json`` plus one raw binary file
per observation: little-endian float64, C order, exactly prod(dims)
values. An optional ``mask.bin`` of 0/1 bytes marks in-region vertices.
The format is dependency-free and bit-exact across languages.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import _each

META_NAME = "meta.json"
MASK_NAME = "mask.bin"
DTYPE_TAG = "f64le"
ORDER_TAG = "C"


@dataclass
class Dataset:
    """Descriptor of a validated on-disk dataset; observations load lazily.

    ``mask`` is the flat, read-only in-region mask (all True without a
    ``mask.bin``), read and checked once by :func:`read_dataset`."""

    path: Path
    dims: tuple[int, ...]
    axes: tuple[str, ...]
    units: tuple[str, ...]
    n_obs: int
    files: tuple[str, ...]
    has_mask: bool
    mask: np.ndarray

    @property
    def n_points(self) -> int:
        return int(np.prod(self.dims))

    def load(self) -> np.ndarray:
        """All observations as an (n_obs, n_points) float64 array.

        Each file is read straight into its row of one new array, which
        the caller owns; ``analyze`` smooths and fits that array in place,
        so it is the only observation stack the pipeline holds. The worker
        threads take whole files, each read and checked by one task. A file
        whose size is not exactly one volume is rejected. A non-finite
        value inside the mask is rejected, naming its file and vertex;
        outside the mask any value is accepted. Of several bad files, the
        first in file order is the one named.
        """
        out = np.empty((self.n_obs, self.n_points), dtype="<f8")

        def read(i):
            path = self.path / self.files[i]
            _read_volume(path, out[i])
            bad = ~np.isfinite(out[i]) & self.mask
            if bad.any():
                v = int(np.argmax(bad))
                raise ValueError(
                    f"{path}: non-finite value {out[i, v]} inside the mask "
                    f"at vertex {v} {tuple(int(c) for c in np.unravel_index(v, self.dims))}"
                )

        _each(read, range(self.n_obs))
        return out


def _whole(key: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi); a fraction, a bool or a non-number is an error."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value >= hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise ValueError(f"{key} must be {bound}, got {value!r}")
    return int(value)


def _read_volume(path: Path, out: np.ndarray) -> None:
    with open(path, "rb") as fh:
        n_read = fh.readinto(out)
        trailing = fh.read(1)
    if n_read != out.nbytes or trailing:
        raise ValueError(
            f"{path}: {path.stat().st_size} bytes, expected {out.nbytes} "
            f"(no silent truncation)"
        )


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
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object, got {meta!r}")
    for key in ("dims", "axes", "units", "dtype", "order", "n_obs", "files"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
    for key in ("dims", "axes", "units", "files"):
        if not isinstance(meta[key], list) or not meta[key]:
            raise ValueError(f"{meta_path}: {key} must be a nonempty list, got {meta[key]!r}")
        if key in ("axes", "units") and not all(isinstance(v, str) for v in meta[key]):
            raise ValueError(f"{meta_path}: {key} must be a list of strings, got {meta[key]!r}")
    if meta["dtype"] != DTYPE_TAG:
        raise ValueError(f"{meta_path}: unsupported dtype {meta['dtype']!r}")
    if meta["order"] != ORDER_TAG:
        raise ValueError(f"{meta_path}: unsupported order {meta['order']!r}")
    dims = tuple(_whole(f"{meta_path}: dims", n, 1) for n in meta["dims"])
    axes, units = tuple(meta["axes"]), tuple(meta["units"])
    if len(axes) != len(dims) or len(units) != len(dims):
        raise ValueError(f"{meta_path}: axes/units must match dims")
    files = tuple(meta["files"])
    n_obs = _whole(f"{meta_path}: n_obs", meta["n_obs"], 1)
    if n_obs != len(files):
        raise ValueError(f"{meta_path}: n_obs={n_obs} but {len(files)} files listed")
    n_points = int(np.prod(dims))
    for name in files:
        # a path would read observations from outside the dataset directory
        if not isinstance(name, str) or Path(name).name != name or name == "..":
            raise ValueError(f"{meta_path}: files entry {name!r} is not a plain file name")
        fpath = path / name
        if not fpath.is_file():
            raise ValueError(f"{path}: missing observation file {name}")
        if fpath.stat().st_size != 8 * n_points:
            raise ValueError(
                f"{fpath}: {fpath.stat().st_size} bytes, expected {8 * n_points}"
            )
    has_mask = (path / MASK_NAME).is_file()
    mask = np.ones(n_points, dtype=bool)
    if has_mask:
        raw = (path / MASK_NAME).read_bytes()
        if len(raw) != n_points:
            raise ValueError(f"{path / MASK_NAME}: {len(raw)} bytes, expected {n_points}")
        mask = np.frombuffer(raw, dtype=np.uint8) != 0
    mask.setflags(write=False)
    return Dataset(path=path, dims=dims, axes=axes, units=units,
                   n_obs=n_obs, files=files, has_mask=has_mask, mask=mask)


def write_dataset(path, volumes, axes=None, units=None, mask=None) -> Dataset:
    """Write observations to a dataset directory.

    ``volumes`` is (n_obs, *dims) or a list of equally shaped arrays.
    Every argument is checked before anything is written. A dataset
    already in the directory is replaced: its ``mask.bin`` and observation
    files that the new one does not write are removed.
    """
    volumes = np.asarray(volumes, dtype=float)
    if volumes.ndim < 2 or volumes.size == 0:
        raise ValueError("volumes must be a nonempty (n_obs, *dims) array")
    n_obs, dims = volumes.shape[0], volumes.shape[1:]
    axes = tuple(axes) if axes else tuple(f"axis{i}" for i in range(len(dims)))
    units = tuple(units) if units else ("bins",) * len(dims)
    if len(axes) != len(dims) or len(units) != len(dims):
        raise ValueError("axes/units must match dims")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.size != int(np.prod(dims)):
            raise ValueError("mask length must match prod(dims)")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    files = [f"obs{i:04d}.bin" for i in range(n_obs)]
    for stale in [*path.glob("obs*.bin"), path / MASK_NAME]:
        if stale.name not in files:
            stale.unlink(missing_ok=True)
    for name, volume in zip(files, volumes):
        (path / name).write_bytes(np.ascontiguousarray(volume, dtype="<f8").tobytes())
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
        (path / MASK_NAME).write_bytes(mask.astype(np.uint8).tobytes())
    return read_dataset(path)
