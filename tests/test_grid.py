import numpy as np
import pytest

from nsassim.errors import ConfigurationError, InvalidFieldError
from nsassim.grid import (
    GridSpec, ScalarField, curl_kernel, divergence_kernel, gradient_kernel,
    trapezoid_weights, zero_boundary_ring, zero_mean_kernel,
)
from nsassim.nse import advection, momentum_operator, velocity_gradient


def grid(nx=17, ny=17, nt=4, t_end=0.4):
    return GridSpec(nx=nx, ny=ny, nt=nt, t_end=t_end)


def steady(g, *components):
    """(nt+1, ny, nx[, c]) array equal to the given mesh arrays or constants
    at every level; one component gives a scalar field."""
    xx, _ = g.mesh()
    vals = np.stack([c * np.ones_like(xx) for c in components], axis=-1)
    if len(components) == 1:
        vals = vals[..., 0]
    return np.broadcast_to(vals, (g.nt + 1,) + vals.shape)


def vector_laplacian(u, g):
    """Laplacian of (..., ny, nx, 2) at interior nodes, component axis kept last.

    Each slice is a one-level trajectory of nse.momentum_operator started
    from itself, so the time difference vanishes exactly and nu = 1 leaves
    -Lap u.
    """
    v = np.moveaxis(u, -1, 0)[..., None, :, :]
    out = momentum_operator(v, g, 1.0, u_init=v[..., 0, 1:-1, 1:-1])
    return -np.moveaxis(out[..., 0, :, :], 0, -1)


def backward_difference(u, u0, g):
    """The time-difference term of nse.momentum_operator, levels 1..nt,
    interior nodes, component axis last.

    u is spatially constant, so the viscous term vanishes.
    """
    v = np.moveaxis(u[1:], -1, 0)
    out = momentum_operator(v, g, 1.0, u_init=np.moveaxis(u0[1:-1, 1:-1], -1, 0))
    return np.moveaxis(out, 0, -1)


class TestGridSpec:
    def test_spacings(self):
        g = GridSpec(nx=11, ny=21, nt=5, lx=2.0, ly=1.0, t_end=0.5)
        assert g.hx == pytest.approx(0.2)
        assert g.hy == pytest.approx(0.05)
        assert g.dt == pytest.approx(0.1)

    @pytest.mark.parametrize("kwargs", [
        dict(nx=4, ny=8, nt=2),
        dict(nx=8, ny=4, nt=2),
        dict(nx=8, ny=8, nt=1),
        dict(nx=8, ny=8, nt=2, lx=-1.0),
        dict(nx=8, ny=8, nt=2, t_end=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            GridSpec(**kwargs)

    def test_interior_weight_sums_to_one(self):
        g = grid()
        total = g.interior_weight() * g.nt * g.n_interior
        assert total == pytest.approx(1.0, abs=1e-15)


class TestCurlStream:
    def test_zero(self):
        g = grid()
        u = curl_kernel(np.zeros((g.nt + 1, g.ny, g.nx)), g)
        assert np.all(u == 0.0)

    def test_linear_stream(self):
        # psi = y gives u = (1, 0); exact for second-order stencils
        g = grid()
        _, yy = g.mesh()
        u = curl_kernel(steady(g, yy), g)
        assert np.allclose(u[..., 0], 1.0, atol=1e-13)
        assert np.allclose(u[..., 1], 0.0, atol=1e-13)

    def test_divergence_free_sine_bump(self):
        g = GridSpec(nx=65, ny=65, nt=2, t_end=0.1)
        xx, yy = g.mesh()
        u = curl_kernel(steady(g, np.sin(np.pi * xx) * np.sin(np.pi * yy)), g)
        div = divergence_kernel(u, g)[:, 1:-1, 1:-1]
        assert np.abs(div).max() <= 1e-12 * np.abs(u).max()

    def test_divergence_free_random(self):
        # commuting 1D stencils cancel for any stream function
        g = grid()
        rng = np.random.default_rng(0)
        u = curl_kernel(rng.standard_normal((g.nt + 1, g.ny, g.nx)), g)
        grad = gradient_kernel(u, g)
        div = divergence_kernel(u, g)[:, 1:-1, 1:-1]
        assert np.abs(div).max() <= 1e-12 * (1.0 + np.abs(grad).max())

    def test_non_finite_rejected(self):
        g = grid()
        vals = np.zeros((g.nt + 1, g.ny, g.nx))
        vals[0, 3, 3] = np.nan
        with pytest.raises(InvalidFieldError):
            ScalarField(g, vals)


class TestSpatialGradient:
    def test_constant(self):
        g = grid()
        assert np.abs(gradient_kernel(steady(g, 3.0, -2.0), g)).max() <= 1e-13

    def test_linear_exact(self):
        g = grid()
        xx, yy = g.mesh()
        dv = gradient_kernel(steady(g, xx, -yy), g)
        assert np.allclose(dv[..., 0], 1.0, atol=1e-12)
        assert np.allclose(dv[..., 1], 0.0, atol=1e-12)
        assert np.allclose(dv[..., 2], 0.0, atol=1e-12)
        assert np.allclose(dv[..., 3], -1.0, atol=1e-12)

    def test_second_order_convergence(self):
        def err(n):
            g = GridSpec(nx=n, ny=n, nt=2, t_end=0.1)
            xx, yy = g.mesh()
            dv = gradient_kernel(steady(g, np.sin(yy), np.cos(xx)), g)[0]
            exact = np.stack(
                [np.zeros_like(xx), np.cos(yy), -np.sin(xx), np.zeros_like(xx)],
                axis=-1)
            return np.abs(dv - exact).max()

        ratio = err(33) / err(65)
        assert 3.5 <= ratio <= 4.5

    def test_vorticity_of_rotation(self):
        g = grid()
        xx, yy = g.mesh()
        du = gradient_kernel(steady(g, yy, -xx), g)
        assert np.allclose(du[..., 2] - du[..., 1], -2.0, atol=1e-12)


class TestLaplacian:
    def test_linear_is_zero(self):
        g = grid()
        xx, yy = g.mesh()
        assert np.abs(vector_laplacian(steady(g, 2 * xx + yy, xx - yy), g)).max() <= 1e-11

    def test_quadratic_exact(self):
        g = grid()
        xx, yy = g.mesh()
        lap = vector_laplacian(steady(g, xx ** 2 + yy ** 2, 0.0), g)
        assert np.allclose(lap[..., 0], 4.0, atol=1e-10)
        assert np.abs(lap[..., 1]).max() <= 1e-10

    def test_second_order_convergence(self):
        def err(n):
            g = GridSpec(nx=n, ny=n, nt=2, t_end=0.1)
            xx, yy = g.mesh()
            psi = steady(g, np.sin(np.pi * xx) * np.sin(np.pi * yy))
            lap = vector_laplacian(np.stack([psi, psi], axis=-1), g)[0, ..., 0]
            exact = -2 * np.pi ** 2 * psi[0, 1:-1, 1:-1]
            return np.abs(lap - exact).max()

        ratio = err(33) / err(65)
        assert 3.5 <= ratio <= 4.5


def advect(u, g):
    """(u.D)u at interior nodes of (..., ny, nx, 2), component axis kept last."""
    v = np.moveaxis(u, -1, 0)
    return np.moveaxis(advection(v[..., 1:-1, 1:-1], velocity_gradient(v, g)), 0, -1)


class TestAdvection:
    def test_zero_and_constant(self):
        g = grid()
        assert np.all(advect(np.zeros((g.nt + 1, g.ny, g.nx, 2)), g) == 0.0)
        assert np.abs(advect(steady(g, 1.5, -0.5), g)).max() <= 1e-13

    def test_bilinear_hand_value(self):
        # u = (y, x): (u.D)u = (x, y), exact for linear fields
        g = grid()
        xx, yy = g.mesh()
        adv = advect(steady(g, yy, xx), g)
        assert np.allclose(adv[0, ..., 0], xx[1:-1, 1:-1], atol=1e-12)
        assert np.allclose(adv[0, ..., 1], yy[1:-1, 1:-1], atol=1e-12)


class TestTimeDerivative:
    def test_constant_in_time(self):
        g = grid()
        u0 = np.ones((g.ny, g.nx, 2))
        u = np.ones((g.nt + 1, g.ny, g.nx, 2))
        assert np.abs(backward_difference(u, u0, g)).max() <= 1e-14

    def test_linear_in_time_exact(self):
        g = grid()
        c = np.array([0.7, -0.3])
        vals = np.stack([k * g.dt * np.ones((g.ny, g.nx, 2)) * c
                         for k in range(g.nt + 1)])
        dt_u = backward_difference(vals, np.zeros((g.ny, g.nx, 2)), g)
        assert np.allclose(dt_u, c, atol=1e-12)

    def test_first_order_convergence(self):
        def err(nt):
            g = GridSpec(nx=6, ny=6, nt=nt, t_end=1.0)
            ts = g.t_nodes()
            vals = np.stack([np.sin(t) * np.ones((g.ny, g.nx, 2)) for t in ts])
            du = backward_difference(vals, vals[0], g)
            exact = np.stack([np.cos(t) * np.ones((g.ny, g.nx, 2)) for t in ts])
            return np.abs(du - exact[1:, 1:-1, 1:-1]).max()

        ratio = err(16) / err(32)
        assert 1.7 <= ratio <= 2.3


class TestZeroMeanProject:
    def test_constant_killed(self):
        g = grid()
        p = 7.0 * np.ones((g.nt + 1, g.ny, g.nx))
        assert np.abs(zero_mean_kernel(p, g)).max() <= 1e-13

    def test_idempotent_projection(self):
        g = grid()
        rng = np.random.default_rng(1)
        p = rng.standard_normal((g.nt + 1, g.ny, g.nx))
        once = zero_mean_kernel(p, g)
        twice = zero_mean_kernel(once, g)
        assert np.abs(twice - once).max() <= 1e-14 * np.abs(p).max()
        w = trapezoid_weights(g.ny, g.nx)
        means = np.einsum("yx,tyx->t", w, once)
        assert np.abs(means).max() <= 1e-14 * max(1.0, np.abs(p).max())

    def test_linear_field_mean(self):
        # trapezoidal mean of x over the unit square is exactly 1/2
        g = grid()
        xx, _ = g.mesh()
        out = zero_mean_kernel(steady(g, xx), g)
        assert np.allclose(out, xx - 0.5, atol=1e-14)

    def test_linearity(self):
        g = grid()
        rng = np.random.default_rng(2)
        a = rng.standard_normal((g.nt + 1, g.ny, g.nx))
        b = rng.standard_normal((g.nt + 1, g.ny, g.nx))
        lhs = zero_mean_kernel(2.0 * a - 3.0 * b, g)
        rhs = 2.0 * zero_mean_kernel(a, g) - 3.0 * zero_mean_kernel(b, g)
        assert np.abs(lhs - rhs).max() <= 1e-13


def test_operator_linearity_on_random_fields():
    g = grid(nx=9, ny=9, nt=3, t_end=0.3)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((g.nt + 1, g.ny, g.nx, 2))
    b = rng.standard_normal((g.nt + 1, g.ny, g.nx, 2))
    for op in (gradient_kernel, vector_laplacian, divergence_kernel):
        lhs = op(1.3 * a + 0.7 * b, g)
        rhs = 1.3 * op(a, g) + 0.7 * op(b, g)
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_zero_boundary_ring():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 6, 7, 2))
    z = zero_boundary_ring(u)
    assert np.all(z[:, 0] == 0.0) and np.all(z[:, -1] == 0.0)
    assert np.all(z[:, :, 0] == 0.0) and np.all(z[:, :, -1] == 0.0)
    assert np.array_equal(z[:, 1:-1, 1:-1], u[:, 1:-1, 1:-1])
