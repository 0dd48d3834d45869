import math

import numpy as np
import pytest

from nsassim.errors import ConfigurationError
from nsassim.grid import GridSpec, VectorField
from nsassim.misfit import assemble_state
from nsassim.nse import ControlVector, PhysicsSetup, velocity_gradient
from nsassim.observation import (
    KINDS, ObsField, ObservationModel, default_mask, eval_K, eval_K_jvp, eval_K_vjp,
    n_components, synth_data,
)
from nsassim.runner import check_observation


@pytest.fixture
def grid():
    return GridSpec(nx=10, ny=9, nt=4, t_end=0.4)


def zero_q(grid, kind):
    return np.zeros((grid.nt, grid.ny - 2, grid.nx - 2, n_components(kind)))


def steady(grid, u1, u2):
    """Velocity field equal to (u1, u2) at every level; mesh arrays or constants."""
    xx, _ = grid.mesh()
    vals = np.stack([u1 * np.ones_like(xx), u2 * np.ones_like(xx)], axis=-1)
    return VectorField(grid, np.broadcast_to(vals, (grid.nt + 1,) + vals.shape))


def interior_state(u):
    """Velocity and its spatial gradient on interior nodes, levels 1..nt,
    component axis first."""
    v = np.moveaxis(u.values[1:], -1, 0)
    return v[..., 1:-1, 1:-1], velocity_gradient(v, u.grid)


class TestObservationModel:
    def test_component_counts(self):
        assert n_components("masked-velocity") == 2
        assert n_components("vorticity") == 1
        assert n_components("speed-squared") == 1
        with pytest.raises(ConfigurationError):
            n_components("pressure")

    def test_masked_requires_mask(self, grid):
        with pytest.raises(ConfigurationError, match="mask"):
            ObservationModel("masked-velocity", grid, zero_q(grid, "masked-velocity"))

    def test_mask_must_hit_interior(self, grid):
        mask = np.zeros((grid.ny, grid.nx), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ConfigurationError, match="interior"):
            ObservationModel("masked-velocity", grid, zero_q(grid, "masked-velocity"),
                             mask=mask)

    def test_shape_checked(self, grid):
        with pytest.raises(ConfigurationError):
            ObservationModel("vorticity", grid, np.zeros((2, 2, 2, 1)))

    def test_default_mask_stride(self, grid):
        mask = default_mask(grid, 4)
        idx = np.argwhere(mask)
        assert np.all(idx % 4 == 0)
        assert mask[0, 0] and mask[4, 4]


class TestEvalK:
    def test_identity_cancellation(self, grid):
        rng = np.random.default_rng(0)
        u = VectorField(grid, rng.standard_normal((grid.nt + 1, grid.ny, grid.nx, 2)))
        q = u.values[1:, 1:-1, 1:-1]
        model = ObservationModel("masked-velocity", grid, q, mask=default_mask(grid, 2))
        k = eval_K(*interior_state(u), model)
        assert np.abs(k).max() == 0.0

    def test_off_mask_is_zero(self, grid):
        u = steady(grid, 1.0, 2.0)
        model = ObservationModel("masked-velocity", grid,
                                 zero_q(grid, "masked-velocity"),
                                 mask=default_mask(grid, 3))
        k = eval_K(*interior_state(u), model)
        off = ~model.interior_mask()
        assert np.abs(k[:, :, off]).max() == 0.0
        on = model.interior_mask()
        assert np.allclose(k[0][:, on], 1.0) and np.allclose(k[1][:, on], 2.0)

    def test_vorticity_of_rotation(self, grid):
        xx, yy = grid.mesh()
        u = steady(grid, yy, -xx)
        model = ObservationModel("vorticity", grid, zero_q(grid, "vorticity"))
        k = eval_K(*interior_state(u), model)
        assert np.allclose(k, -2.0, atol=1e-12)

    def test_speed_squared(self, grid):
        u = steady(grid, 3.0, 4.0)
        model = ObservationModel("speed-squared", grid, zero_q(grid, "speed-squared"))
        assert np.allclose(eval_K(*interior_state(u), model), 25.0, atol=1e-12)

    def test_grid_mismatch(self, grid):
        # the misfit is evaluated through assemble_state, which checks grids
        other = GridSpec(nx=8, ny=8, nt=4, t_end=0.4)
        setup = PhysicsSetup(grid=other, nu=0.01, lam=0.5, f=VectorField.zeros(other),
                             u0=np.zeros((other.ny, other.nx, 2)))
        model = ObservationModel("vorticity", grid, zero_q(grid, "vorticity"))
        with pytest.raises(ConfigurationError):
            assemble_state(ControlVector.zeros(other), setup, model)


def interior_cf(values):
    """Interior levels 1..nt of a (nt+1, ny, nx, c) array, component axis first."""
    return np.moveaxis(values[1:, 1:-1, 1:-1], -1, 0)


def constant_direction(d, grid):
    """The same component vector d at every interior node, component axis first."""
    return np.multiply.outer(d, np.ones((grid.nt, grid.ny - 2, grid.nx - 2)))


class TestDerivatives:
    def test_masked_velocity_identity_on_mask(self, grid):
        model = ObservationModel("masked-velocity", grid,
                                 zero_q(grid, "masked-velocity"),
                                 mask=default_mask(grid, 2))
        u = interior_cf(VectorField.zeros(grid).values)
        no_grad = np.zeros((4,) + u.shape[1:])
        on = model.interior_mask()
        for c in range(2):
            dk = eval_K_jvp(u, constant_direction(np.eye(2)[c], grid), no_grad, model)
            assert np.allclose(dk[c][:, on], 1.0)
            assert np.abs(dk[1 - c][:, on]).max() == 0.0
            assert np.abs(dk[:, :, ~on]).max() == 0.0

    def test_speed_squared_eta(self, grid):
        u = steady(grid, 3.0, 4.0)
        model = ObservationModel("speed-squared", grid, zero_q(grid, "speed-squared"))
        u_int = interior_cf(u.values)
        no_grad = np.zeros((4,) + u_int.shape[1:])
        for d, expect in (((1.0, 0.0), 6.0), ((0.0, 1.0), 8.0)):
            dk = eval_K_jvp(u_int, constant_direction(np.array(d), grid), no_grad, model)
            assert np.allclose(dk[0], expect)

    def test_vorticity_tensor_derivative(self, grid):
        u = interior_cf(VectorField.zeros(grid).values)
        model = ObservationModel("vorticity", grid, zero_q(grid, "vorticity"))
        no_u = np.zeros(u.shape)
        for j, expect in enumerate((0.0, -1.0, 1.0, 0.0)):
            dk = eval_K_jvp(u, no_u, constant_direction(np.eye(4)[j], grid), model)
            assert np.allclose(dk[0], expect)

    def test_central_difference_agreement(self, grid):
        # 100 random states per kind, both arguments
        ok, detail = check_observation(seed=42, grid=grid, trials=100)
        assert ok, detail

    @pytest.mark.parametrize("kind", KINDS)
    def test_jvp_vjp_dot_product(self, grid, kind):
        # <J (du, dA), kbar> = <(du, dA), J^T kbar>, random fields everywhere
        rng = np.random.default_rng(7)
        model = ObservationModel(kind, grid, zero_q(grid, kind), mask=default_mask(grid, 2))
        shape = (grid.nt, grid.ny - 2, grid.nx - 2)
        u = rng.standard_normal(shape + (2,))
        du = rng.standard_normal(shape + (2,))
        da = rng.standard_normal(shape + (4,))
        kbar = rng.standard_normal(shape + (model.n,))
        dk = eval_K_jvp(np.moveaxis(u, -1, 0), np.moveaxis(du, -1, 0),
                        np.moveaxis(da, -1, 0), model)
        ubar, abar = np.zeros((2,) + shape), np.zeros((4,) + shape)
        eval_K_vjp(np.moveaxis(u, -1, 0), np.moveaxis(kbar, -1, 0), model, ubar, abar)
        lhs = float(np.vdot(np.moveaxis(dk, 0, -1), kbar))
        rhs = float(np.vdot(np.moveaxis(du, -1, 0), ubar) + np.vdot(np.moveaxis(da, -1, 0), abar))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSynthData:
    def test_exact_data_zero_for_every_kind(self, grid):
        rng = np.random.default_rng(1)
        u = VectorField(grid, rng.standard_normal((grid.nt + 1, grid.ny, grid.nx, 2)))
        for kind in KINDS:
            model = synth_data(u, kind, 0.0, seed=9, mask_stride=2)
            assert np.abs(eval_K(*interior_state(u), model)).max() <= 1e-14

    def test_deterministic_given_seed(self, grid):
        rng = np.random.default_rng(2)
        u = VectorField(grid, rng.standard_normal((grid.nt + 1, grid.ny, grid.nx, 2)))
        a = synth_data(u, "vorticity", 0.3, seed=123)
        b = synth_data(u, "vorticity", 0.3, seed=123)
        assert np.array_equal(a.data_q, b.data_q)
        c = synth_data(u, "vorticity", 0.3, seed=124)
        assert not np.array_equal(a.data_q, c.data_q)

    def test_noise_bounded_by_amplitude(self, grid):
        rng = np.random.default_rng(3)
        u = VectorField(grid, rng.standard_normal((grid.nt + 1, grid.ny, grid.nx, 2)))
        clean = synth_data(u, "speed-squared", 0.0, seed=5)
        noisy = synth_data(u, "speed-squared", 0.1, seed=5)
        assert np.abs(noisy.data_q - clean.data_q).max() <= 0.1

    def test_negative_amplitude_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            synth_data(VectorField.zeros(grid), "vorticity", -0.1, seed=0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, grid, amplitude):
        # a NaN amplitude would pass both comparisons and return noise-free data
        with pytest.raises(ConfigurationError, match="noise amplitude"):
            synth_data(VectorField.zeros(grid), "vorticity", amplitude, seed=0)


def test_obs_field_validation(grid):
    with pytest.raises(ConfigurationError):
        ObsField(grid, np.zeros((1, 2, 3, 1)))
    bad = np.zeros((grid.nt, grid.ny - 2, grid.nx - 2, 1))
    bad[0, 0, 0, 0] = np.inf
    from nsassim.errors import InvalidFieldError
    with pytest.raises(InvalidFieldError):
        ObsField(grid, bad)
