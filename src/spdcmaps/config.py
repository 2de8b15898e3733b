"""Run configuration: flat-key config files mapped onto library objects.

Configuration files are YAML, written either as flat dotted keys
(``crystal1.cut_deg: 29.3``) or as the equivalent nested mappings; both
are flattened to dotted paths before validation.  Angles cross this
boundary in degrees, lengths in mm, wavelengths in nm; the objects
underneath work in radians.  Unknown keys are rejected and every
violation is reported with its full key path, first one wins.
"""

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import yaml

from . import crystal, maps, phasematch
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


class _Loader(yaml.SafeLoader):
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
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
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
    except yaml.YAMLError as exc:
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


@contextmanager
def _rekey(prefix):
    """Translate library ConfigError keys to full paths."""
    try:
        yield
    except ConfigError as exc:
        sub = exc.key or ""
        raise ConfigError(exc.message,
                          key=f"{prefix}.{sub}" if sub else prefix) from None


def _check_dispersion_range(canon, material, which):
    lam_p = canon["pump.wavelength_nm"]
    lo, hi = material.valid_nm
    for lam, what in ((lam_p, "pump"), (2.0 * lam_p, "degenerate photon")):
        if not lo <= lam <= hi:
            raise ConfigError(
                f"{what} wavelength {lam:g} nm is outside the "
                f"[{lo:g}, {hi:g}] nm validity range of "
                f"{material.name} ({which})", key="pump.wavelength_nm")


def _build_crystal(canon, which):
    with _rekey(which):
        mat = crystal.get_material(canon[f"{which}.material"])
    _check_dispersion_range(canon, mat, which)
    with _rekey(which):
        return crystal.CrystalSpec(
            material=mat,
            length_mm=canon[f"{which}.length_mm"],
            axis_theta=math.radians(canon[f"{which}.cut_deg"]),
            axis_phi=math.radians(canon[f"{which}.axis_phi_deg"]))


def build_run_config(flat):
    """Validated flat dict -> RunConfig with live library objects."""
    canon = validate(flat)

    theta_p = canon["pump.theta_p_deg"]
    if abs(theta_p) >= 90.0:
        raise ConfigError("pump tilt must stay below 90 degrees",
                          key="pump.theta_p_deg")
    with _rekey("pump"):
        pump = phasematch.PumpConfig(
            wavelength_nm=canon["pump.wavelength_nm"],
            theta_p=math.radians(theta_p),
            phi_p=math.radians(canon["pump.phi_p_deg"]),
            phase_offset=math.radians(canon["pump.phase_offset_deg"]))

    c1 = _build_crystal(canon, "crystal1")
    c2 = _build_crystal(canon, "crystal2")

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

    filter_nm = canon["filter.center_nm"]
    if filter_nm is not None:
        if not 0.0 < pump.wavelength_nm < filter_nm:
            raise ConfigError(
                "filter wavelength must exceed the pump wavelength",
                key="filter.center_nm")
        try:
            c2.material.index_o(filter_nm)
            partner = 1.0 / (1.0 / pump.wavelength_nm - 1.0 / filter_nm)
            c2.material.index_o(partner)
        except RangeError as exc:
            raise ConfigError(str(exc), key="filter.center_nm") from None

    t_lo = canon["tilt.theta_min_deg"]
    t_hi = canon["tilt.theta_max_deg"]
    if not t_lo < t_hi:
        raise ConfigError("tilt range must satisfy min < max",
                          key="tilt.theta_max_deg")
    if not 2 <= canon["tilt.n_samples"] <= 10_000:
        raise ConfigError("tilt scan needs 2 to 10000 samples",
                          key="tilt.n_samples")

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
        tilt_range=(math.radians(t_lo), math.radians(t_hi)),
        tilt_samples=canon["tilt.n_samples"],
        fit_line=line, flat=canon)
