"""Field persistence: flat little-endian float64 binary plus a text sidecar.

A field is stored as two files: `<stem>.bin` holding the raw values in C
order as little-endian 64-bit floats, and `<stem>.meta` holding `key=value`
lines with the grid parameters, the array layout, and a sha256 checksum of
the binary payload.  Round-trips are bit-exact.

The space-time quadrature convention recorded here: residual-type fields
are evaluated on interior nodes at time levels 1..nt with uniform weights
summing to one (see GridSpec.interior_weight).
"""

import hashlib
import math

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, ScalarField, VectorField

_LAYOUTS = {"scalar": "t,y,x", "vector": "t,y,x,c2", "obs": "t,iy,ix,n", "dofs": "free"}


def _meta_path(stem):
    return str(stem) + ".meta"


def _bin_path(stem):
    return str(stem) + ".bin"


def write_array(stem, values, grid, layout, extra=None):
    """Write an array with its sidecar; returns the checksum."""
    if layout not in _LAYOUTS:
        raise ConfigurationError(f"unknown layout {layout!r}")
    values = np.ascontiguousarray(values, dtype="<f8")
    payload = values.tobytes()
    digest = hashlib.sha256(payload).hexdigest()
    with open(_bin_path(stem), "wb") as fh:
        fh.write(payload)
    lines = {
        "layout": layout,
        "order": _LAYOUTS[layout],
        "shape": ",".join(str(s) for s in values.shape),
        "nx": grid.nx,
        "ny": grid.ny,
        "nt": grid.nt,
        "lx": repr(grid.lx),
        "ly": repr(grid.ly),
        "t_end": repr(grid.t_end),
        "sha256": digest,
    }
    if extra:
        lines.update(extra)
    with open(_meta_path(stem), "w", encoding="ascii") as fh:
        for key, val in lines.items():
            fh.write(f"{key}={val}\n")
    return digest


def read_meta(stem):
    meta = {}
    with open(_meta_path(stem), "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            meta[key] = val
    return meta


def _meta_value(meta, stem, key, convert):
    """convert(meta[key]); a missing or malformed line raises ConfigurationError."""
    if key not in meta:
        raise ConfigurationError(f"{stem}.meta has no {key} line")
    try:
        return convert(meta[key])
    except ValueError:
        raise ConfigurationError(f"{stem}.meta: {key}={meta[key]!r} is not valid") from None


def read_array(stem):
    """Read and checksum an array written by write_array; returns (values, grid, meta)."""
    meta = read_meta(stem)
    with open(_bin_path(stem), "rb") as fh:
        payload = fh.read()
    if hashlib.sha256(payload).hexdigest() != meta.get("sha256"):
        raise ConfigurationError(
            f"checksum mismatch for {stem}: file is corrupt or was edited")
    shape = _meta_value(meta, stem, "shape", lambda v: tuple(int(s) for s in v.split(",")))
    if any(s < 0 for s in shape):
        raise ConfigurationError(f"shape {meta['shape']} of {stem} has a negative entry")
    if 8 * math.prod(shape) != len(payload):
        raise ConfigurationError(
            f"shape {meta['shape']} of {stem} does not match its {len(payload)}-byte payload")
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    grid = GridSpec(**{key: _meta_value(meta, stem, key, int) for key in ("nx", "ny", "nt")},
                    **{key: _meta_value(meta, stem, key, float) for key in ("lx", "ly", "t_end")})
    return values, grid, meta


def write_scalar_field(stem, field):
    return write_array(stem, field.values, field.grid, "scalar")


def read_scalar_field(stem):
    values, grid, _ = read_array(stem)
    return ScalarField(grid, values)


def write_vector_field(stem, field):
    return write_array(stem, field.values, field.grid, "vector")


def read_vector_field(stem):
    values, grid, _ = read_array(stem)
    return VectorField(grid, values)


def write_mask(path, mask):
    """Persist a boolean spatial mask as a text bitmap (rows of 0/1)."""
    mask = np.asarray(mask, dtype=bool)
    with open(path, "w", encoding="ascii") as fh:
        for row in mask:
            fh.write("".join("1" if v else "0" for v in row) + "\n")


def read_mask(path):
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([c == "1" for c in line])
    return np.array(rows, dtype=bool)
