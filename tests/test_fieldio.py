import numpy as np
import pytest

from nsassim import fieldio
from nsassim.errors import ConfigurationError
from nsassim.grid import GridSpec, ScalarField, VectorField


@pytest.fixture
def grid():
    return GridSpec(nx=7, ny=6, nt=3, lx=2.0, ly=1.5, t_end=0.7)


def test_scalar_round_trip_bit_exact(tmp_path, grid):
    rng = np.random.default_rng(0)
    fld = ScalarField(grid, rng.standard_normal((grid.nt + 1, grid.ny, grid.nx)))
    stem = tmp_path / "scalar"
    fieldio.write_scalar_field(stem, fld)
    back = fieldio.read_scalar_field(stem)
    assert np.array_equal(back.values, fld.values)
    assert back.grid == grid


def test_vector_round_trip_bit_exact(tmp_path, grid):
    rng = np.random.default_rng(1)
    fld = VectorField(grid, rng.standard_normal((grid.nt + 1, grid.ny, grid.nx, 2)))
    stem = tmp_path / "vector"
    fieldio.write_vector_field(stem, fld)
    back = fieldio.read_vector_field(stem)
    assert np.array_equal(back.values, fld.values)


def test_sidecar_records_grid_and_layout(tmp_path, grid):
    fld = ScalarField.zeros(grid)
    stem = tmp_path / "meta"
    fieldio.write_scalar_field(stem, fld)
    meta = fieldio.read_meta(stem)
    assert meta["layout"] == "scalar"
    assert meta["order"] == "t,y,x"
    assert int(meta["nx"]) == grid.nx and int(meta["nt"]) == grid.nt
    assert float(meta["lx"]) == grid.lx
    assert "sha256" in meta


def test_corruption_detected(tmp_path, grid):
    fld = ScalarField(grid, np.arange((grid.nt + 1) * grid.ny * grid.nx,
                                      dtype=float).reshape(grid.nt + 1, grid.ny, grid.nx))
    stem = tmp_path / "corrupt"
    fieldio.write_scalar_field(stem, fld)
    with open(str(stem) + ".bin", "r+b") as fh:
        fh.seek(8)
        fh.write(b"\x5a")
    with pytest.raises(ConfigurationError, match="checksum"):
        fieldio.read_scalar_field(stem)


def test_shape_disagreeing_with_payload_names_stem(tmp_path, grid):
    # the checksum covers only the payload, so an edited shape passes it
    fld = ScalarField(grid, np.zeros((grid.nt + 1, grid.ny, grid.nx)))
    stem = tmp_path / "reshaped"
    fieldio.write_scalar_field(stem, fld)
    meta = (tmp_path / "reshaped.meta").read_text()
    good = f"shape={grid.nt + 1},{grid.ny},{grid.nx}"
    bad = f"shape={grid.nt},{grid.ny},{grid.nx}"
    (tmp_path / "reshaped.meta").write_text(meta.replace(good, bad))
    with pytest.raises(ConfigurationError, match="reshaped"):
        fieldio.read_scalar_field(stem)


def test_unknown_layout_rejected(tmp_path, grid):
    with pytest.raises(ConfigurationError):
        fieldio.write_array(tmp_path / "x", np.zeros(3), grid, "nope")


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    mask = rng.uniform(size=(9, 11)) < 0.3
    path = tmp_path / "mask.txt"
    fieldio.write_mask(path, mask)
    back = fieldio.read_mask(path)
    assert np.array_equal(back, mask)


def test_dof_array_round_trip(tmp_path, grid):
    rng = np.random.default_rng(3)
    dofs = rng.standard_normal((grid.nt, grid.ny - 4, grid.nx - 4))
    stem = tmp_path / "dofs"
    fieldio.write_array(stem, dofs, grid, "dofs")
    values, back_grid, meta = fieldio.read_array(stem)
    assert np.array_equal(values, dofs)
    assert back_grid == grid


@pytest.mark.parametrize("key, line", [("shape", None), ("nx", None), ("lx", None),
                                       ("nt", "nt=x"), ("t_end", "t_end=late"),
                                       ("shape", "shape=4,6,seven")])
def test_malformed_sidecar_names_stem_and_key(tmp_path, grid, key, line):
    # a missing line or a non-numeric value is a ConfigurationError naming
    # the stem and the key, not a bare KeyError or ValueError
    stem = tmp_path / "sidecar"
    fieldio.write_scalar_field(stem, ScalarField.zeros(grid))
    meta = tmp_path / "sidecar.meta"
    lines = [ln for ln in meta.read_text().splitlines() if not ln.startswith(key + "=")]
    meta.write_text("\n".join(lines + ([line] if line else [])) + "\n")
    with pytest.raises(ConfigurationError, match=f"sidecar.*{key}"):
        fieldio.read_scalar_field(stem)
