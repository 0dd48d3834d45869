"""Experiment configuration: INI-style text files with strict validation.

The format is plain `key = value` lines under `[section]` headers, parsed
with configparser.  Every key is validated against the module invariants
before any computation starts, and unknown sections or keys are rejected
outright; error messages name the offending `section.key`.
"""

import configparser
import io
import math
from dataclasses import dataclass

from .errors import ConfigurationError, InvalidFieldError
from .grid import GridSpec
from .nse import PhysicsSetup, forcing_preset, initial_velocity_preset
from .observation import KINDS
from .optim import ContinuationSchedule, OptimOptions


class ConfigFieldError(ConfigurationError):
    """Validation failure tied to one named configuration field."""

    def __init__(self, fieldname, message):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}")


@dataclass
class ExperimentConfig:
    nx: int = 16
    ny: int = 16
    nt: int = 12
    lx: float = 1.0
    ly: float = 1.0
    t_end: float = 0.36

    nu: float = 0.002
    lam: float = 0.5
    forcing: str = "none"
    forcing_amplitude: float = 0.0
    u0: str = "vortex"
    u0_amplitude: float = 0.15
    ref_tol: float = None
    ref_sweeps: int = 3

    kind: str = "masked-velocity"
    mask_stride: int = 4
    noise_amplitude: float = 0.0
    seed: int = 1234

    p_list: tuple = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    warm_start: bool = True

    max_iters: int = 500
    grad_tol: float = 1e-6
    memory: int = 10

    directory: str = "runs/out"
    plots: bool = True

    def validate(self):
        """Run every module invariant; raise ConfigFieldError on the first hit."""
        try:
            grid = GridSpec(self.nx, self.ny, self.nt, self.lx, self.ly, self.t_end)
        except ConfigurationError as exc:
            raise ConfigFieldError("grid", str(exc)) from exc
        if not (0.01 < self.lam < 0.99):
            raise ConfigFieldError("physics.lambda",
                                   f"must lie in (0.01, 0.99), got {self.lam}")
        if not 0.0 < self.nu < math.inf:
            raise ConfigFieldError("physics.nu", f"must be positive and finite, got {self.nu}")
        if self.forcing not in ("none", "swirl"):
            raise ConfigFieldError("physics.forcing", f"unknown preset {self.forcing!r}")
        if self.u0 not in ("zero", "vortex"):
            raise ConfigFieldError("physics.u0", f"unknown preset {self.u0!r}")
        for key in ("forcing_amplitude", "u0_amplitude"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigFieldError(f"physics.{key}", "must be finite")
        if self.ref_tol is not None and not self.ref_tol >= 0.0:
            raise ConfigFieldError("physics.ref_tol", f"must be >= 0, got {self.ref_tol}")
        if self.ref_sweeps < 1:
            raise ConfigFieldError("physics.ref_sweeps", "must be >= 1")
        if self.kind not in KINDS:
            raise ConfigFieldError("observation.kind", f"unknown kind {self.kind!r}")
        if self.mask_stride < 1:
            raise ConfigFieldError("observation.mask_stride", "must be >= 1")
        if self.kind == "masked-velocity" and self.mask_stride > min(self.nx, self.ny) - 2:
            raise ConfigFieldError("observation.mask_stride", "mask misses every interior node")
        if not 0.0 <= self.noise_amplitude < math.inf:
            raise ConfigFieldError("observation.noise_amplitude", "must be finite and >= 0")
        if self.seed < 0:
            raise ConfigFieldError("observation.seed", f"must be >= 0, got {self.seed}")
        try:
            ContinuationSchedule(self.p_list, self.warm_start)
        except ConfigurationError as exc:
            raise ConfigFieldError("schedule.p_list", str(exc)) from exc
        try:
            OptimOptions(max_iters=self.max_iters, grad_tol=self.grad_tol,
                         memory=self.memory)
        except ConfigurationError as exc:
            raise ConfigFieldError("optimizer", str(exc)) from exc
        try:
            self.build_setup(grid)
        except (ConfigurationError, InvalidFieldError) as exc:
            raise ConfigFieldError("physics", str(exc)) from exc
        return grid

    def build_setup(self, grid=None):
        grid = grid or GridSpec(self.nx, self.ny, self.nt, self.lx, self.ly, self.t_end)
        return PhysicsSetup(
            grid=grid, nu=self.nu, lam=self.lam,
            f=forcing_preset(grid, self.forcing, self.forcing_amplitude),
            u0=initial_velocity_preset(grid, self.u0, self.u0_amplitude))

    def schedule(self):
        return ContinuationSchedule(self.p_list, self.warm_start)

    def optim_options(self):
        return OptimOptions(max_iters=self.max_iters, grad_tol=self.grad_tol,
                            memory=self.memory)

    def to_ini(self):
        """Deterministic text echo of the resolved configuration.

        Keys follow _KEYS; an unset optional key (ref_tol) is left out.
        """
        lines, section = [], None
        for sec, key, attr, _, fmt in _KEYS:
            if sec != section:
                lines += ([""] if section else []) + [f"[{sec}]"]
                section = sec
            value = getattr(self, attr)
            if value is not None:
                lines.append(f"{key} = {fmt(value)}")
        return "\n".join(lines) + "\n"


def _get(parser, section, key, cast):
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigFieldError(f"{section}.{key}", f"cannot parse {raw!r}") from exc


def _bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _p_list(raw):
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _lower(value):
    return str(value).lower()


def _joined(values):
    return ",".join(repr(v) for v in values)


# Every configuration key once: (section, key, ExperimentConfig attribute,
# parser of the INI text, formatter for the echo).  Schema checks, parsing
# and to_ini all read this table; the echo lists keys in this order.
_KEYS = (
    ("grid", "nx", "nx", int, str),
    ("grid", "ny", "ny", int, str),
    ("grid", "nt", "nt", int, str),
    ("grid", "lx", "lx", float, repr),
    ("grid", "ly", "ly", float, repr),
    ("grid", "t_end", "t_end", float, repr),
    ("physics", "nu", "nu", float, repr),
    ("physics", "lambda", "lam", float, repr),
    ("physics", "forcing", "forcing", str, str),
    ("physics", "forcing_amplitude", "forcing_amplitude", float, repr),
    ("physics", "u0", "u0", str, str),
    ("physics", "u0_amplitude", "u0_amplitude", float, repr),
    ("physics", "ref_sweeps", "ref_sweeps", int, str),
    ("physics", "ref_tol", "ref_tol", float, repr),
    ("observation", "kind", "kind", str, str),
    ("observation", "mask_stride", "mask_stride", int, str),
    ("observation", "noise_amplitude", "noise_amplitude", float, repr),
    ("observation", "seed", "seed", int, str),
    ("schedule", "p_list", "p_list", _p_list, _joined),
    ("schedule", "warm_start", "warm_start", _bool, _lower),
    ("optimizer", "max_iters", "max_iters", int, str),
    ("optimizer", "grad_tol", "grad_tol", float, repr),
    ("optimizer", "memory", "memory", int, str),
    ("output", "directory", "directory", str, str),
    ("output", "plots", "plots", _bool, _lower),
)


_KNOWN = {(section, key) for section, key, *_ in _KEYS}


def load_config(text=None, path=None):
    """Parse and validate a configuration from text or a file path."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigFieldError("file", f"cannot read {path}: {exc.strerror}") from exc
    if text is None:
        text = ""
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigFieldError("file", f"malformed configuration: {exc}") from exc

    for section in parser.sections():
        if section not in {known_section for known_section, _ in _KNOWN}:
            raise ConfigFieldError(section, "unknown section")
        for key in parser.options(section):
            if (section, key) not in _KNOWN:
                raise ConfigFieldError(f"{section}.{key}", "unknown key")

    cfg = ExperimentConfig()
    for section, key, attr, parse, _ in _KEYS:
        if parser.has_option(section, key):
            setattr(cfg, attr, _get(parser, section, key, parse))
    cfg.validate()
    return cfg


def apply_override(cfg, dotted_key, raw_value):
    """Set one `section.key` from a string value, with validation."""
    if tuple(dotted_key.split(".", 1)) not in _KNOWN:
        raise ConfigFieldError(dotted_key, "unknown parameter")
    section, key = dotted_key.split(".", 1)
    base = cfg.to_ini()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(base)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, raw_value)
    out = io.StringIO()
    parser.write(out)
    return load_config(text=out.getvalue())
