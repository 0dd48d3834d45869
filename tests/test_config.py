import configparser
import os

import pytest

from nsassim.config import (
    _KEYS, ConfigFieldError, ExperimentConfig, apply_override, load_config,
)

EXAMPLE = os.path.join(os.path.dirname(__file__), "..", "configs", "example.ini")

GOOD = """
[grid]
nx = 10
ny = 10
nt = 6
t_end = 0.3

[physics]
nu = 0.01
lambda = 0.4

[observation]
kind = vorticity
noise_amplitude = 0.05
seed = 7

[schedule]
p_list = 2,4,8
warm_start = true

[optimizer]
max_iters = 100
grad_tol = 1e-5

[output]
directory = runs/demo
plots = false
"""


def test_defaults_validate():
    cfg = ExperimentConfig()
    grid = cfg.validate()
    assert grid.nx == 16
    assert cfg.p_list[0] == 2.0 and cfg.p_list[-1] == 128.0


def test_parse_good_config():
    cfg = load_config(text=GOOD)
    assert cfg.nx == 10 and cfg.lam == 0.4
    assert cfg.kind == "vorticity"
    assert cfg.p_list == (2.0, 4.0, 8.0)
    assert cfg.max_iters == 100
    assert cfg.plots is False


def test_lambda_out_of_range_names_field():
    bad = GOOD.replace("lambda = 0.4", "lambda = 1.5")
    with pytest.raises(ConfigFieldError) as err:
        load_config(text=bad)
    assert "physics.lambda" in str(err.value)


def test_unknown_key_rejected():
    bad = GOOD.replace("[grid]\nnx", "[grid]\nresolution = 4\nnx", 1)
    with pytest.raises(ConfigFieldError, match="unknown"):
        load_config(text=bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigFieldError, match="unknown section"):
        load_config(text=GOOD + "\n[turbulence]\nmodel = none\n")


def test_unparseable_value_names_field():
    bad = GOOD.replace("nx = 10", "nx = ten")
    with pytest.raises(ConfigFieldError) as err:
        load_config(text=bad)
    assert "grid.nx" in str(err.value)


def test_bad_schedule_rejected():
    bad = GOOD.replace("p_list = 2,4,8", "p_list = 8,4")
    with pytest.raises(ConfigFieldError, match="schedule.p_list"):
        load_config(text=bad)


@pytest.mark.parametrize("key, value", [
    ("physics.ref_tol", "nan"),
    ("physics.ref_tol", "-1"),
    ("observation.noise_amplitude", "nan"),
    ("physics.u0_amplitude", "nan"),
    ("physics.forcing_amplitude", "inf"),
    ("observation.seed", "-1"),
    ("observation.mask_stride", "15"),
    ("physics.nu", "nan"),
    ("physics.nu", "inf"),
])
def test_non_finite_or_negative_value_names_field(key, value):
    section, name = key.split(".")
    with pytest.raises(ConfigFieldError) as err:
        load_config(text=f"[{section}]\n{name} = {value}\n")
    assert err.value.fieldname == key


def test_infinite_grad_tol_names_optimizer():
    # an infinite tolerance would stop every stage at iteration 0 as converged
    with pytest.raises(ConfigFieldError, match="grad_tol") as err:
        load_config(text="[optimizer]\ngrad_tol = inf\n")
    assert err.value.fieldname == "optimizer"


def test_grid_invariants_checked():
    bad = GOOD.replace("nx = 10", "nx = 3")
    with pytest.raises(ConfigFieldError, match="grid"):
        load_config(text=bad)


def test_round_trip_through_ini():
    cfg = load_config(text=GOOD)
    again = load_config(text=cfg.to_ini())
    assert again == cfg


def test_every_key_round_trips_through_ini():
    cfg = ExperimentConfig(
        nx=9, ny=10, nt=5, lx=2.0, ly=1.5, t_end=0.5,
        nu=0.01, lam=0.3, forcing="swirl", forcing_amplitude=0.2, u0="zero",
        u0_amplitude=0.1, ref_tol=0.05, ref_sweeps=2,
        kind="vorticity", mask_stride=3, noise_amplitude=0.1, seed=7,
        p_list=(2.0, 3.0), warm_start=False,
        max_iters=20, grad_tol=1e-5, memory=5,
        directory="runs/elsewhere", plots=False)
    cfg.validate()
    default = ExperimentConfig()
    for _, key, attr, _, _ in _KEYS:
        assert getattr(cfg, attr) != getattr(default, attr), key
    text = cfg.to_ini()
    assert load_config(text=text) == cfg
    echo = configparser.ConfigParser()
    echo.read_string(text)
    for section, key, _, _, _ in _KEYS:
        assert echo.has_option(section, key), f"{section}.{key}"


def test_example_config_round_trips():
    cfg = load_config(path=EXAMPLE)
    assert load_config(text=cfg.to_ini()) == cfg


def test_apply_override():
    cfg = load_config(text=GOOD)
    out = apply_override(cfg, "physics.lambda", "0.25")
    assert out.lam == 0.25
    assert out.nx == cfg.nx
    with pytest.raises(ConfigFieldError, match="unknown parameter"):
        apply_override(cfg, "physics.gravity", "9.8")
    with pytest.raises(ConfigFieldError):
        apply_override(cfg, "physics.lambda", "2.0")


def test_percent_value_is_literal():
    cfg = load_config(text=GOOD.replace("runs/demo", "runs/100%"))
    assert cfg.directory == "runs/100%"
    assert load_config(text=cfg.to_ini()) == cfg
    assert apply_override(cfg, "physics.lambda", "0.25").directory == "runs/100%"
    assert apply_override(cfg, "output.directory", "runs/50%").directory == "runs/50%"


def test_interpolation_syntax_is_not_substituted():
    cfg = load_config(text=GOOD.replace("runs/demo", "runs/%(nx)s"))
    assert cfg.directory == "runs/%(nx)s"
    assert load_config(text=cfg.to_ini()).directory == "runs/%(nx)s"


def test_build_setup_runs_invariants():
    cfg = load_config(text=GOOD)
    setup = cfg.build_setup()
    assert setup.nu == 0.01
    assert setup.lam == 0.4
