"""Run configuration: flat-key config files mapped onto library objects.

Configuration files are YAML, written either as flat dotted keys
(``crystal1.cut_deg: 29.3``) or as the equivalent nested mappings; both
are flattened to dotted paths before validation.  Angles cross this
boundary in degrees, lengths in mm, wavelengths in nm; the objects
underneath work in radians.  Unknown keys are rejected and every
violation is reported with its full key path, first one wins.

Files and ``--set`` values parse with crystal's one YAML base loader
(libyaml's where PyYAML has it), plus YAML 1.2's exponent floats; a
text that loader cannot parse or encode is a ConfigError.
"""

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import yaml

from . import compensation, crystal, maps, phasematch
from .errors import ConfigError, FitError, RangeError

_REQUIRED = object()

# canonical key table: path -> (type tag, default)
_KEYS = {
    "pump.wavelength_nm": ("float", _REQUIRED),
    "pump.theta_p_deg": ("float", 0.0),
    "pump.phi_p_deg": ("float", 0.0),
    "pump.phase_offset_deg": ("float", 0.0),
    "crystal1.material": ("str", _REQUIRED),
    "crystal1.length_mm": ("float", _REQUIRED),
    "crystal1.cut_deg": ("float", _REQUIRED),
    "crystal1.axis_phi_deg": ("float", 0.0),
    "crystal2.material": ("str", _REQUIRED),
    "crystal2.length_mm": ("float", _REQUIRED),
    "crystal2.cut_deg": ("float", _REQUIRED),
    "crystal2.axis_phi_deg": ("float", 90.0),
    "source.detection_distance_mm": ("float", 1200.0),
    "source.mu": ("float", 0.5),
    "source.include_z_offset_phase": ("bool", False),
    "source.group_convention": ("str", maps.GROUP_ALONG_RAY),
    "grid.nx": ("int", 257),
    "grid.ny": ("int", 257),
    "grid.x_min": ("float", -60.0),
    "grid.x_max": ("float", 60.0),
    "grid.y_min": ("float", -60.0),
    "grid.y_max": ("float", 60.0),
    "grid.mode": ("str", maps.DETECTION_MODE),
    "filter.center_nm": ("float", None),
    "tilt.phi_p_deg": ("float", 90.0),
    "tilt.theta_min_deg": ("float", 0.0),
    "tilt.theta_max_deg": ("float", 60.0),
    "tilt.n_samples": ("int", 25),
    "fit.line": ("str", "y=0"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, already validated."""

    source: maps.SourceConfig
    grid: maps.GridSpec
    filter_nm: float          # None means the degenerate wavelength
    tilt_phi_p: float         # rad
    tilt_range: tuple         # (lo, hi) rad
    tilt_samples: int
    fit_line: str
    flat: dict                # canonical flat key -> value snapshot


def _flatten(node, prefix, out):
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            _flatten(value, path + ".", out)
        elif path in out:
            raise ConfigError("key given more than once", key=path)
        else:
            out[path] = value
    return out


class _Loader(crystal._YamlLoader):
    """Safe loader that reads ``5e6``, ``-5e1`` and ``1e-3`` as floats, as
    YAML 1.2 does (PyYAML's YAML 1.1 rules leave them strings)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$"), "-+0123456789")


def load_config_file(path):
    """Read a YAML config file into a flat dotted-key dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except (yaml.YAMLError, UnicodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return _flatten(raw, "", {})


def parse_override(text):
    """Split one ``key=value`` override; the value is parsed as YAML."""
    key, sep, value = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    try:
        return key, yaml.load(value, Loader=_Loader)
    except (yaml.YAMLError, UnicodeError) as exc:
        raise ConfigError(f"cannot parse override value: {exc}",
                          key=key) from None


def apply_overrides(flat, pairs):
    out = dict(flat)
    for text in pairs:
        key, value = parse_override(text)
        out[key] = value
    return out


def _coerce(path, tag, value):
    if tag == "bool":
        if isinstance(value, bool):
            return value
    elif tag == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif tag == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not math.isfinite(value):
                raise ConfigError(f"expected a finite number, got {value!r}",
                                  key=path)
            return float(value)
    elif tag == "str":
        if isinstance(value, str):
            return value
    raise ConfigError(f"expected a {tag} value, got {value!r}", key=path)


def validate(flat):
    """Check a flat dict against the key table; returns the canonical dict
    with defaults filled in.  Unknown keys, missing required keys and
    mistyped values all raise ConfigError naming the key path."""
    for path in flat:
        if path not in _KEYS:
            raise ConfigError("unknown configuration key", key=path)
    out = {}
    for path, (tag, default) in _KEYS.items():
        if path in flat:
            out[path] = _coerce(path, tag, flat[path])
        elif default is _REQUIRED:
            raise ConfigError("required key is missing", key=path)
        else:
            out[path] = default
    return out


# library field names whose config keys differ, the unit added
_FIELD_KEYS = {"theta_p": "theta_p_deg", "phi_p": "phi_p_deg",
               "phase_offset": "phase_offset_deg", "axis_theta": "cut_deg",
               "axis_phi": "axis_phi_deg", "theta_min": "theta_min_deg",
               "theta_max": "theta_max_deg"}


@contextmanager
def _rekey(prefix):
    """Translate library ConfigError keys (field names) to config keys."""
    try:
        yield
    except ConfigError as exc:
        sub = _FIELD_KEYS.get(exc.key, exc.key)
        raise ConfigError(exc.message,
                          key=f"{prefix}.{sub}" if sub else prefix) from None


def _check_dispersion_range(material, key, checks):
    """crystal._indices of the material, with its window check, at each
    (frequency, photon) of checks, as the kernels evaluate them; its
    RangeError as a ConfigError keyed key, naming the photon."""
    for w, what in checks:
        try:
            crystal._indices(material, w)
        except RangeError as exc:
            raise ConfigError(f"{exc} for the {what}", key=key) from None


def _build_crystal(canon, pump, which):
    with _rekey(which):
        mat = crystal.get_material(canon[f"{which}.material"])
    # the pump's transit; the ring solve, find-tilt and a degenerate sweep
    _check_dispersion_range(mat, "pump.wavelength_nm", (
        (pump.omega, f"pump ({which})"),
        (0.5 * pump.omega, f"degenerate photon ({which})")))
    with _rekey(which):
        return crystal.CrystalSpec(
            material=mat,
            length_mm=canon[f"{which}.length_mm"],
            axis_theta=math.radians(canon[f"{which}.cut_deg"]),
            axis_phi=math.radians(canon[f"{which}.axis_phi_deg"]))


def build_run_config(flat):
    """Validated flat dict -> RunConfig with live library objects."""
    canon = validate(flat)

    with _rekey("pump"):
        pump = phasematch.PumpConfig(
            wavelength_nm=canon["pump.wavelength_nm"],
            theta_p=math.radians(canon["pump.theta_p_deg"]),
            phi_p=math.radians(canon["pump.phi_p_deg"]),
            phase_offset=math.radians(canon["pump.phase_offset_deg"]))

    c1 = _build_crystal(canon, pump, "crystal1")
    c2 = _build_crystal(canon, pump, "crystal2")

    with _rekey("source"):
        source = maps.SourceConfig(
            crystal1=c1, crystal2=c2, pump=pump,
            detection_distance_mm=canon["source.detection_distance_mm"],
            include_z_offset_phase=canon["source.include_z_offset_phase"],
            mu=canon["source.mu"],
            group_convention=canon["source.group_convention"])

    # GridSpec already names its errors by full key path
    grid = maps.GridSpec(
        nx=canon["grid.nx"], ny=canon["grid.ny"],
        x_min=canon["grid.x_min"], x_max=canon["grid.x_max"],
        y_min=canon["grid.y_min"], y_max=canon["grid.y_max"],
        mode=canon["grid.mode"])

    # the sweep's signal and, by phasematch._partner's law, its partner
    filter_nm = canon["filter.center_nm"]
    key = "pump.wavelength_nm" if filter_nm is None else "filter.center_nm"
    w_s = maps._signal_omega(pump, filter_nm, key)[1]
    if not w_s < pump.omega:
        raise ConfigError("filter wavelength must exceed the pump wavelength",
                          key=key)
    _check_dispersion_range(c2.material, key, (
        (w_s, "signal (crystal2)"), (pump.omega - w_s, "idler (crystal2)")))

    with _rekey("tilt"):
        t_lo, t_hi, samples = compensation._check_scan(
            (math.radians(canon["tilt.theta_min_deg"]),
             math.radians(canon["tilt.theta_max_deg"])),
            canon["tilt.n_samples"])

    line = canon["fit.line"]
    for mode in maps._COORDS:  # a line of any grid mode; fit checks its own
        try:
            maps._line_target(mode, line)
            break
        except FitError:
            pass
    else:
        raise ConfigError(f"line must be 'y=0', 'x=0' or 'phi=<degrees>' "
                          f"with finite degrees, got {line!r}", key="fit.line")

    return RunConfig(
        source=source, grid=grid, filter_nm=filter_nm,
        tilt_phi_p=math.radians(canon["tilt.phi_p_deg"]),
        tilt_range=(t_lo, t_hi), tilt_samples=samples,
        fit_line=line, flat=canon)
