import os

import numpy as np
import pytest

from nsassim import nse
from nsassim.config import load_config
from nsassim.errors import ConfigurationError, InvalidFieldError, SolverError
from nsassim.grid import (
    GridSpec, ScalarField, VectorField, curl_kernel, divergence_kernel, gradient_kernel,
    trapezoid_weights, zero_boundary_ring,
)
from nsassim.nse import (
    ControlVector, PhysicsSetup, advection, advection_transpose_a, advection_transpose_grad_b,
    consistent_forcing, extend_interior, forcing_preset, initial_velocity_preset,
    momentum_operator, momentum_operator_transpose, pressure_gradient,
    pressure_gradient_transpose, pressure_map, reference_solve, residual_y,
    state_from_control, stream_bump, velocity_gradient, velocity_gradient_transpose,
    velocity_map, velocity_map_transpose,
    _curl_gram_factors, _diagonalized_solve, _level_lstsq, _pressure_fit,
)

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs", "example.ini")


def grid(nx=10, ny=10, nt=5, t_end=0.25):
    return GridSpec(nx=nx, ny=ny, nt=nt, t_end=t_end)


def basic_setup(g, nu=0.01, lam=0.5, amp=0.1, advection=True):
    return PhysicsSetup(grid=g, nu=nu, lam=lam,
                        f=forcing_preset(g, "none", 0.0),
                        u0=initial_velocity_preset(g, "vortex", amp),
                        include_advection=advection)


class TestControlVector:
    def test_shapes_enforced(self):
        g = grid()
        with pytest.raises(ConfigurationError):
            ControlVector(g, np.zeros((g.nt, 1, 1)), np.zeros((g.nt, g.ny - 2, g.nx - 2)))

    def test_flat_round_trip(self):
        g = grid()
        rng = np.random.default_rng(0)
        c = ControlVector(g, rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                          rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
        back = ControlVector.from_flat(g, c.to_flat())
        assert np.array_equal(back.psi, c.psi)
        assert np.array_equal(back.pr, c.pr)

    def test_normalized_zero_mean(self):
        g = grid()
        rng = np.random.default_rng(1)
        c = ControlVector(g, np.zeros((g.nt, g.ny - 4, g.nx - 4)),
                          rng.standard_normal((g.nt, g.ny - 2, g.nx - 2))).normalized()
        w = trapezoid_weights(g.ny - 2, g.nx - 2)
        means = np.einsum("yx,tyx->t", w, c.pr)
        assert np.abs(means).max() <= 1e-14

    def test_non_finite_rejected(self):
        g = grid()
        psi = np.zeros((g.nt, g.ny - 4, g.nx - 4))
        psi[0, 0, 0] = np.inf
        with pytest.raises(InvalidFieldError):
            ControlVector(g, psi, np.zeros((g.nt, g.ny - 2, g.nx - 2)))


class TestExtension:
    def test_exact_for_quadratics(self):
        # boundary extrapolation is quadratic, hence exact for quadratics
        g = grid()
        xx, yy = g.mesh()
        full = 1.0 + 2 * xx - yy + 0.5 * xx ** 2 - xx * yy + 0.25 * yy ** 2
        ext = extend_interior(np.tile(full[1:-1, 1:-1], (g.nt, 1, 1)), g)
        assert np.abs(ext - full[None]).max() <= 1e-12

    @pytest.mark.parametrize("nx, ny", [(10, 10), (9, 13), (5, 7), (5, 5), (7, 5)])
    def test_matches_dense_extension_matrix(self, nx, ny):
        # reference: the dense definition E_y a E_x^T evaluated term by term;
        # the slice version sums the corner terms in another order, so the
        # two agree to round-off.
        def dense(n):
            e = np.zeros((n, n - 2))
            e[1:-1] = np.eye(n - 2)
            e[0, :3] = (3.0, -3.0, 1.0)
            e[-1, -3:] = (1.0, -3.0, 3.0)
            return e

        def term_by_term(ey, a, ex):
            out = np.zeros((a.shape[0], ey.shape[0], ex.shape[0]))
            for b in range(a.shape[1]):
                for c in range(a.shape[2]):
                    term = ey[None, :, b, None] * a[:, b, c, None, None]
                    out += term * ex[None, None, :, c]
            return out

        g = grid(nx=nx, ny=ny, nt=3)
        ex, ey = dense(nx), dense(ny)
        rng = np.random.default_rng(nx * ny)
        a = rng.standard_normal((g.nt, ny - 2, nx - 2))
        ref = term_by_term(ey, a, ex)
        np.testing.assert_allclose(extend_interior(a, g), ref, rtol=1e-15,
                                   atol=1e-15 * np.abs(ref).max())


NU = 0.03


def fixed(shape, seed):
    """A fixed random array: the frozen argument of a bilinear term."""
    return np.random.default_rng(seed).standard_normal(shape)


def advection_a(v, g):
    return (advection(v[0], fixed((4,) + v[0].shape[1:], 6)),)


def advection_a_transpose(w, g):
    return (advection_transpose_a(w[0], fixed((4,) + w[0].shape[1:], 6)),)


def advection_grad_b(v, g):
    return (advection(fixed((2,) + v[0].shape[1:], 7), v[0]),)


def advection_grad_b_transpose(w, g):
    return (advection_transpose_grad_b(w[0], fixed((2,) + w[0].shape[1:], 7)),)


def laplacian_term(v, g):
    # -Lap u: the nu-proportional part of the momentum operator
    return (momentum_operator(v[0], g, 1.0) - momentum_operator(v[0], g, 0.0),)


def laplacian_term_transpose(w, g):
    return (momentum_operator_transpose(w[0], g, 1.0) - momentum_operator_transpose(w[0], g, 0.0),)


def one(fn):
    """Lift a one-array map to the tuple convention of ADJOINT_PAIRS."""
    return lambda v, g: (fn(v[0], g),)


# (forward, transpose, input shapes, output shapes) on an (nt, ny, nx) grid;
# forward maps a tuple of arrays to a tuple, transpose the reverse
ADJOINT_PAIRS = {
    "velocity-map": (one(velocity_map), one(velocity_map_transpose),
                     lambda t, y, x: [(t, y - 4, x - 4)], lambda t, y, x: [(2, t, y, x)]),
    "gradient": (one(velocity_gradient),
                 lambda w, g: (velocity_gradient_transpose(w[0], g, np.zeros(
                     (2,) + w[0].shape[1:-2] + (g.ny, g.nx))),),
                 lambda t, y, x: [(2, t, y, x)], lambda t, y, x: [(4, t, y - 2, x - 2)]),
    "momentum-operator": (lambda v, g: (momentum_operator(v[0], g, NU),),
                          lambda w, g: (momentum_operator_transpose(w[0], g, NU),),
                          lambda t, y, x: [(2, t, y, x)], lambda t, y, x: [(2, t, y - 2, x - 2)]),
    "laplacian": (laplacian_term, laplacian_term_transpose,
                  lambda t, y, x: [(2, t, y, x)], lambda t, y, x: [(2, t, y - 2, x - 2)]),
    "pressure-gradient": (one(pressure_gradient), one(pressure_gradient_transpose),
                          lambda t, y, x: [(t, y - 2, x - 2)],
                          lambda t, y, x: [(2, t, y - 2, x - 2)]),
    "advection-a": (advection_a, advection_a_transpose,
                    lambda t, y, x: [(2, t, y - 2, x - 2)],
                    lambda t, y, x: [(2, t, y - 2, x - 2)]),
    "advection-grad-b": (advection_grad_b, advection_grad_b_transpose,
                         lambda t, y, x: [(4, t, y - 2, x - 2)],
                         lambda t, y, x: [(2, t, y - 2, x - 2)]),
}


@pytest.mark.parametrize("ny, nx", [(13, 9), (11, 7)])  # a full grid and its interior
def test_quadrature_weights_cached_read_only(ny, nx):
    w = trapezoid_weights(ny, nx)
    assert trapezoid_weights(ny, nx) is w
    assert not w.flags.writeable
    assert w.sum() == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("name", sorted(ADJOINT_PAIRS))
def test_dot_product_identity(name):
    # <A v, w> = <v, A^T w> on a non-square grid, so swapped axes cannot cancel
    fwd, bwd, in_shapes, out_shapes = ADJOINT_PAIRS[name]
    g = grid(nx=9, ny=13, nt=3)
    rng = np.random.default_rng(5)
    v = [rng.standard_normal(s) for s in in_shapes(g.nt, g.ny, g.nx)]
    w = [rng.standard_normal(s) for s in out_shapes(g.nt, g.ny, g.nx)]
    lhs = sum(float(np.vdot(a, b)) for a, b in zip(fwd(v, g), w))
    rhs = sum(float(np.vdot(a, b)) for a, b in zip(v, bwd(w, g)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPhysicsSetup:
    def test_parameter_validation(self):
        g = grid()
        f = forcing_preset(g, "none", 0.0)
        u0 = initial_velocity_preset(g, "zero", 0.0)
        with pytest.raises(ConfigurationError):
            PhysicsSetup(grid=g, nu=0.0, lam=0.5, f=f, u0=u0)
        with pytest.raises(ConfigurationError):
            PhysicsSetup(grid=g, nu=0.1, lam=1.0, f=f, u0=u0)

    def test_u0_boundary_enforced(self):
        g = grid()
        u0 = initial_velocity_preset(g, "vortex", 0.1)
        u0 = u0.copy()
        u0[0, 3, 0] = 0.2
        with pytest.raises(ConfigurationError, match="boundary"):
            PhysicsSetup(grid=g, nu=0.1, lam=0.5,
                         f=forcing_preset(g, "none", 0.0), u0=u0)

    def test_u0_divergence_enforced(self):
        g = grid()
        xx, yy = g.mesh()
        u0 = np.zeros((g.ny, g.nx, 2))
        u0[..., 0] = np.sin(np.pi * xx) * np.sin(np.pi * yy)  # not solenoidal
        u0 = zero_boundary_ring(u0[None])[0]
        with pytest.raises(ConfigurationError, match="divergence"):
            PhysicsSetup(grid=g, nu=0.1, lam=0.5,
                         f=forcing_preset(g, "none", 0.0), u0=u0)

    def test_presets_satisfy_invariants(self):
        g = grid()
        basic_setup(g, amp=0.3)  # construction runs the invariant checks


class TestStateFromControl:
    def test_zero_control(self):
        g = grid()
        setup = basic_setup(g)
        u, p = state_from_control(ControlVector.zeros(g), setup)
        assert np.array_equal(u.values[0], setup.u0)
        assert np.abs(u.values[1:]).max() == 0.0
        assert np.abs(p.values).max() == 0.0

    def test_divergence_free_and_no_slip(self):
        g = grid()
        setup = basic_setup(g)
        rng = np.random.default_rng(3)
        c = ControlVector(g, rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                          rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
        u, p = state_from_control(c, setup)
        grad = gradient_kernel(u.values, g)
        div = divergence_kernel(u.values, g)[1:, 1:-1, 1:-1]
        assert np.abs(div).max() <= 1e-12 * (1.0 + np.abs(grad).max())
        ring = np.concatenate([u.values[1:, 0].ravel(), u.values[1:, -1].ravel(),
                               u.values[1:, :, 0].ravel(), u.values[1:, :, -1].ravel()])
        assert np.abs(ring).max() == 0.0

    def test_pressure_zero_mean_per_level(self):
        g = grid()
        setup = basic_setup(g)
        rng = np.random.default_rng(4)
        c = ControlVector(g, np.zeros((g.nt, g.ny - 4, g.nx - 4)),
                          rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
        _, p = state_from_control(c, setup)
        w = trapezoid_weights(g.ny, g.nx)
        means = np.einsum("yx,tyx->t", w, p.values)
        assert np.abs(means).max() <= 1e-14 * max(1.0, np.abs(p.values).max())

    def test_time_constant_stream_reproduces_u0(self):
        # a stream function replicating the initial bump gives a velocity
        # constant in time and equal to u0
        g = grid()
        amp = 0.2
        setup = basic_setup(g, amp=amp)
        psi0 = stream_bump(g, amp, power=2)
        c = ControlVector(g, np.tile(psi0[2:-2, 2:-2], (g.nt, 1, 1)),
                          np.zeros((g.nt, g.ny - 2, g.nx - 2)))
        u, _ = state_from_control(c, setup)
        for k in range(1, g.nt + 1):
            assert np.abs(u.values[k] - setup.u0).max() <= 1e-14

    def test_stream_reconstruction_from_velocity(self):
        # recover the stream function behind a representable u0 by least
        # squares on the velocity map itself (the map is injective on the
        # clamped space), then replicate it in time
        g = grid()
        setup = basic_setup(g, amp=0.2)
        nfy, nfx = g.ny - 4, g.nx - 4
        cols = []
        e = np.zeros((g.ny, g.nx))
        for j in range(nfy):
            for i in range(nfx):
                e[2 + j, 2 + i] = 1.0
                cols.append(zero_boundary_ring(curl_kernel(e[None], g))[0].ravel())
                e[2 + j, 2 + i] = 0.0
        sol = np.linalg.lstsq(np.array(cols).T, setup.u0.ravel(), rcond=None)[0]
        c = ControlVector(g, np.tile(sol.reshape(nfy, nfx), (g.nt, 1, 1)),
                          np.zeros((g.nt, g.ny - 2, g.nx - 2)))
        u, _ = state_from_control(c, setup)
        assert np.abs(u.values[1:] - setup.u0).max() <= 1e-12


class TestResidual:
    def test_zero_everything(self):
        g = grid()
        setup = PhysicsSetup(grid=g, nu=0.05, lam=0.5,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "zero", 0.0))
        u, p = state_from_control(ControlVector.zeros(g), setup)
        assert np.abs(residual_y(u, p, setup).values).max() == 0.0

    def test_feasibility_is_reproducible(self):
        # y is defined as the residual; recomputing it from the assembled
        # state gives the identical field
        g = grid()
        setup = basic_setup(g)
        rng = np.random.default_rng(5)
        c = ControlVector(g, 0.3 * rng.standard_normal((g.nt, g.ny - 4, g.nx - 4)),
                          0.3 * rng.standard_normal((g.nt, g.ny - 2, g.nx - 2)))
        u, p = state_from_control(c, setup)
        y1 = residual_y(u, p, setup).values
        y2 = residual_y(u, p, setup).values
        assert np.array_equal(y1, y2)
        assert np.abs(y1[0]).max() == 0.0  # level 0 unused

    def test_manufactured_consistent_forcing(self):
        g = GridSpec(nx=13, ny=13, nt=5, t_end=0.3)
        xx, yy = g.mesh()
        levels_u, levels_p = [], []
        for t in g.t_nodes():
            a = 1.0 + 0.4 * t
            u1 = a * np.pi * np.sin(np.pi * xx) ** 2 * np.sin(2 * np.pi * yy) / 2
            u2 = -a * np.pi * np.sin(2 * np.pi * xx) * np.sin(np.pi * yy) ** 2 / 2
            levels_u.append(np.stack([u1, u2], axis=-1))
            levels_p.append(a * np.cos(np.pi * xx) * np.cos(np.pi * yy))
        u_m = VectorField(g, np.stack(levels_u))
        p_m = ScalarField(g, np.stack(levels_p))
        base = PhysicsSetup(grid=g, nu=0.07, lam=0.5,
                            f=forcing_preset(g, "none", 0.0),
                            u0=initial_velocity_preset(g, "zero", 0.0))
        f = consistent_forcing(u_m, p_m, base, u0=u_m.values[0])
        setup = PhysicsSetup(grid=g, nu=0.07, lam=0.5, f=f,
                             u0=initial_velocity_preset(g, "zero", 0.0))
        res = residual_y(u_m, p_m, setup, u0=u_m.values[0])
        scale = max(1.0, np.abs(f.values).max())
        assert np.abs(res.values).max() <= 1e-12 * scale

    @pytest.mark.parametrize("fn", [residual_y, consistent_forcing])
    def test_misshaped_u0_override_rejected(self, fn):
        g = GridSpec(nx=8, ny=8, nt=3, t_end=0.1)
        setup = basic_setup(g)
        u, p = state_from_control(ControlVector.zeros(g), setup)
        with pytest.raises(ConfigurationError, match="u0 shape"):
            fn(u, p, setup, u0=np.zeros((3, 3, 2)))


def in_space_manufactured(nx, nt, t_end=0.32, nu=0.01):
    """Manufactured trajectory inside the control parametrization."""
    g = GridSpec(nx=nx, ny=nx, nt=nt, t_end=t_end)
    shape = stream_bump(g, 1.0, power=2)

    def amp(t):
        return 0.12 * (1.0 + 0.5 * np.sin(2.0 * t))

    ts = g.t_nodes()
    psi_dofs = np.stack([amp(t) * shape[2:-2, 2:-2] for t in ts[1:]])
    xs, ys = g.x_nodes(), g.y_nodes()
    xi, yi = np.meshgrid(xs[1:-1], ys[1:-1], indexing="xy")
    pr = np.stack([np.cos(np.pi * xi) * np.cos(np.pi * yi) * (1 + 0.3 * t)
                   for t in ts[1:]])
    c = ControlVector(g, psi_dofs, pr).normalized()
    psi0 = np.zeros((g.ny, g.nx))
    psi0[2:-2, 2:-2] = amp(0.0) * shape[2:-2, 2:-2]
    u0 = zero_boundary_ring(curl_kernel(psi0[None], g))[0]
    base = PhysicsSetup(grid=g, nu=nu, lam=0.5,
                        f=forcing_preset(g, "none", 0.0), u0=u0)
    u_m, p_m = state_from_control(c, base)
    setup = PhysicsSetup(grid=g, nu=nu, lam=0.5,
                         f=consistent_forcing(u_m, p_m, base), u0=u0)
    return g, setup, u_m


class TestReferenceSolve:
    def test_zero_data_zero_orbit(self):
        g = grid()
        setup = PhysicsSetup(grid=g, nu=0.05, lam=0.5,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "zero", 0.0))
        ref = reference_solve(setup)
        assert np.abs(ref.u.values).max() == 0.0
        assert np.abs(ref.p.values).max() == 0.0
        assert ref.sup_residual == 0.0

    def test_cfl_guard(self):
        g = GridSpec(nx=10, ny=10, nt=2, t_end=4.0)
        setup = basic_setup(g)
        with pytest.raises(SolverError, match="CFL"):
            reference_solve(setup)

    def test_unforced_vortex_energy_decay(self):
        g = GridSpec(nx=16, ny=16, nt=12, t_end=0.36)
        setup = PhysicsSetup(grid=g, nu=0.02, lam=0.5,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "vortex", 0.2))
        ref = reference_solve(setup)
        energy = [float(np.sum(ref.u.values[k, 1:-1, 1:-1] ** 2))
                  for k in range(g.nt + 1)]
        assert all(b < a for a, b in zip(energy, energy[1:]))

    def test_state_matches_control_exactly(self):
        g = GridSpec(nx=12, ny=12, nt=8, t_end=0.3)
        setup = basic_setup(g, nu=0.005, amp=0.12)
        ref = reference_solve(setup)
        u, p = state_from_control(ref.control, setup)
        assert np.array_equal(u.values, ref.u.values)
        assert np.array_equal(p.values, ref.p.values)
        res = residual_y(ref.u, ref.p, setup)
        assert float(np.abs(res.values).max()) == ref.sup_residual

    def test_reproduces_in_space_manufactured_solution(self):
        # forcing manufactured inside the parametrization: the per-level
        # least-squares step has the exact solution, so the solver recovers
        # it to solver precision, improving under refinement
        g1, setup1, u1 = in_space_manufactured(12, 8)
        ref1 = reference_solve(setup1, advection_sweeps=4)
        err1 = np.abs(ref1.u.values - u1.values).max()
        g2, setup2, u2 = in_space_manufactured(23, 16)
        ref2 = reference_solve(setup2, advection_sweeps=4)
        err2 = np.abs(ref2.u.values - u2.values).max()
        scale = np.abs(u1.values).max()
        assert err1 <= 1e-6 * scale
        assert err2 <= err1

    def test_residual_reported_and_bounded(self):
        g = GridSpec(nx=16, ny=16, nt=12, t_end=0.36)
        setup = PhysicsSetup(grid=g, nu=0.002, lam=0.5,
                             f=forcing_preset(g, "none", 0.0),
                             u0=initial_velocity_preset(g, "vortex", 0.15))
        ref = reference_solve(setup, tol_ref=0.1)
        assert ref.sup_residual <= ref.tol_ref
        assert ref.tol_ref == 0.1

    @pytest.mark.parametrize("sweeps", [0, -1])
    def test_advection_sweeps_below_one_rejected(self, sweeps):
        setup = basic_setup(grid())
        with pytest.raises(ConfigurationError, match="advection_sweeps"):
            reference_solve(setup, advection_sweeps=sweeps)


def centred_gradient(p, g):
    """Centred gradient of full-grid (..., ny, nx) values at interior nodes, component first."""
    return np.stack([p[..., 1:-1, :] @ g.d1x()[1:-1].T, g.d1y()[1:-1] @ p[..., 1:-1]])


def interior_gradient_columns(g):
    """Interior momentum rows of the pressure block, one column per interior node.

    The centred gradient of the pressure field, independent of pressure_gradient.
    """
    n_p = (g.ny - 2) * (g.nx - 2)
    units = np.eye(n_p).reshape(n_p, g.ny - 2, g.nx - 2)
    grad = centred_gradient(pressure_map(units, g), g)
    return np.moveaxis(grad, 0, -1).reshape(n_p, -1).T


class TestReducedLevelSolve:
    """The projected CGLS level solve against dense joint least squares."""

    def test_pressure_gradient_matches_columns(self):
        # G pr is the centred gradient of the pressure field at interior
        # nodes: the extension is exact for the one-sided end stencils
        g = grid(nx=9, ny=13)
        pr = np.random.default_rng(13).standard_normal((g.nt, g.ny - 2, g.nx - 2))
        ref = centred_gradient(pressure_map(pr, g), g)
        assert np.abs(pressure_gradient(pr, g) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("advect", [True, False])
    def test_level_psi_matches_joint_lstsq(self, advect):
        g = grid()
        setup = basic_setup(g, advection=advect)
        rng = np.random.default_rng(11)
        u_adv = 0.7 * setup.u0
        b = rng.standard_normal(2 * (g.ny - 2) * (g.nx - 2))
        a = np.moveaxis(u_adv[1:-1, 1:-1], -1, 0)
        cols = []
        e = np.zeros((1, g.ny, g.nx))
        for j, i in np.ndindex(g.ny - 4, g.nx - 4):
            e[0, 2 + j, 2 + i] = 1.0
            u = np.moveaxis(zero_boundary_ring(curl_kernel(e, g)), -1, 0)  # one level
            e[0, 2 + j, 2 + i] = 0.0
            col = momentum_operator(u, g, setup.nu)
            if advect:
                col += advection(a, velocity_gradient(u, g))
            cols.append(np.moveaxis(col[:, 0], 0, -1).ravel())
        joint = np.hstack([np.array(cols).T, interior_gradient_columns(g)])
        psi_ref = np.linalg.lstsq(joint, b, rcond=None)[0][:len(cols)]

        b_levels = np.moveaxis(b.reshape(g.ny - 2, g.nx - 2, 2), -1, 0)[:, None]
        psi = _level_lstsq(np.zeros((1, g.ny - 4, g.nx - 4)), b_levels,
                           a[:, None] if advect else None, setup)
        assert np.abs(psi.ravel() - psi_ref).max() <= 1e-12 * np.abs(psi_ref).max()

    def test_level_solve_is_preconditioned(self, monkeypatch):
        # one velocity_map per CGLS iteration plus one for the start: the
        # unpreconditioned loop needs about 30 on this right-hand side
        cfg = load_config(path=EXAMPLE)
        setup = cfg.build_setup(cfg.validate())
        g = setup.grid
        calls = []

        def counted(psi, grid):
            calls.append(1)
            return velocity_map(psi, grid)

        monkeypatch.setattr(nse, "velocity_map", counted)
        u0 = np.moveaxis(setup.u0[1:-1, 1:-1], -1, 0)[:, None]
        b = u0 / g.dt + np.moveaxis(setup.f.values[1:2, 1:-1, 1:-1], -1, 0)
        _level_lstsq(np.zeros((1, g.ny - 4, g.nx - 4)), b, u0, setup)
        assert 0 < len(calls) <= 15

    def test_curl_gram_preconditioner_is_exact(self):
        g = grid(nx=9, ny=13)
        rng = np.random.default_rng(14)
        psi = rng.standard_normal((g.nt, g.ny - 4, g.nx - 4))
        d1x, d1y = g.d1x()[1:-1, 2:-2], g.d1y()[1:-1, 2:-2]
        gram = velocity_map_transpose(velocity_map(psi, g), g)
        ref = d1y.T @ d1y @ psi + psi @ d1x.T @ d1x
        assert np.abs(gram - ref).max() <= 1e-12 * np.abs(ref).max()
        back = _diagonalized_solve(gram, *_curl_gram_factors(g))
        assert np.abs(back - psi).max() <= 1e-10 * np.abs(psi).max()

    def test_pressure_recovery_matches_min_norm_lstsq(self):
        g = grid()
        rng = np.random.default_rng(12)
        target = rng.standard_normal((g.nt, g.ny - 2, g.nx - 2, 2))
        gmat = interior_gradient_columns(g)
        ref = np.stack([np.linalg.lstsq(gmat, t.ravel(), rcond=None)[0] for t in target])
        zero_psi = np.zeros((g.nt, g.ny - 4, g.nx - 4))
        expected = ControlVector(g, zero_psi, ref.reshape(g.nt, g.ny - 2, g.nx - 2)).normalized()
        fit = _pressure_fit(np.moveaxis(target, -1, 0), g)
        got = ControlVector(g, zero_psi, fit).normalized()
        assert np.abs(got.pr - expected.pr).max() <= 1e-10 * np.abs(expected.pr).max()
        # the fit is the minimum-norm solution itself: no constant is added
        assert np.abs(fit.ravel() - ref.ravel()).max() <= 1e-10 * np.abs(ref).max()

    def test_bundled_truth_sup_residual(self):
        cfg = load_config(path=EXAMPLE)
        setup = cfg.build_setup(cfg.validate())
        ref = reference_solve(setup, tol_ref=cfg.ref_tol, advection_sweeps=cfg.ref_sweeps)
        assert ref.sup_residual == pytest.approx(0.05282840681776, rel=1e-9)
