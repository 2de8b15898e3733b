"""The package's one YAML loader.

Configs, ``--set`` values and the materials registry parse through
``crystal._YamlLoader``: libyaml's scanner where PyYAML has it, the
pure-Python one otherwise.  The pure-Python loader with the same
resolvers is the reference it must agree with on every shipped file and
on every number- or bool-like value text.
"""

import os
import subprocess
import sys
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import spdcmaps
from spdcmaps import cli, config, crystal
from spdcmaps.errors import ConfigError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(os.path.join(ROOT, "configs", name)
                 for name in os.listdir(os.path.join(ROOT, "configs"))
                 if name.endswith(".yaml"))
MATERIALS = os.path.join(os.path.dirname(crystal.__file__), "data",
                         "materials.yaml")
SRC = os.path.dirname(os.path.dirname(spdcmaps.__file__))


class _Reference(yaml.SafeLoader):
    """The pure-Python loader with config._Loader's resolvers, exponent
    floats included."""

    yaml_implicit_resolvers = config._Loader.yaml_implicit_resolvers


def _run(script):
    """Run a script in a fresh interpreter that imports this spdcmaps."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# ------------------------------------------------------------ the loader

def test_config_loader_is_built_on_the_package_loader():
    assert issubclass(config._Loader, crystal._YamlLoader)


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_parses_as_the_reference(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    expected = yaml.load(text, Loader=_Reference)
    # repr tells 1 from 1.0 and True, which == does not
    assert repr(yaml.load(text, Loader=config._Loader)) == repr(expected)
    assert (repr(config.load_config_file(path))
            == repr(config._flatten(expected, "", {})))


def test_materials_registry_parses_as_the_reference():
    with open(MATERIALS, encoding="utf-8") as fh:
        text = fh.read()
    assert (repr(yaml.load(text, Loader=crystal._YamlLoader))
            == repr(yaml.load(text, Loader=yaml.SafeLoader)))


def _override(text, loader):
    """parse_override's value under a given loader, or its ConfigError."""
    with mock.patch.object(config, "_Loader", loader):
        try:
            return config.parse_override(f"k={text}")[1]
        except ConfigError as exc:
            return exc


_NUMBER_LIKE = (
    st.floats().map(repr)
    | st.integers(-2 ** 70, 2 ** 70).map(str)
    | st.sampled_from(["true", "false", "True", "FALSE", "5e6", "-5e1",
                       "1e-3", ".inf", "-.inf", "+.inf", ".nan", ".NaN"])
    | st.from_regex(r"[-+]?[0-9_]*\.?[0-9_]*([eE][-+]?[0-9]+)?",
                    fullmatch=True))


@settings(max_examples=300, deadline=None)
@given(text=_NUMBER_LIKE)
def test_number_and_bool_overrides_parse_as_the_reference(text):
    got, expected = _override(text, config._Loader), _override(text,
                                                                _Reference)
    if isinstance(expected, ConfigError):
        assert isinstance(got, ConfigError)
    else:
        assert type(got) is type(expected)
        assert repr(got) == repr(expected)


def test_override_that_cannot_be_encoded_is_a_config_error():
    # libyaml raises UnicodeEncodeError on a lone surrogate, the
    # pure-Python reader a ReaderError
    with pytest.raises(ConfigError, match="cannot parse override") as exc:
        config.parse_override("pump.phase_offset_deg=\ud800")
    assert exc.value.key == "pump.phase_offset_deg"


def test_cli_override_that_cannot_be_encoded_exits_2(tmp_path, capsys):
    code = cli.main(["phase-map", "--config", CONFIGS[0], "--grid", "3x3",
                     "--set", "pump.phase_offset_deg=\ud800",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_pure_python_fallback_loads_the_same_configs():
    # PyYAML built without libyaml has no CSafeLoader
    script = f"""
import yaml
vars(yaml).pop("CSafeLoader", None)
from spdcmaps import config, crystal
assert crystal._YamlLoader is yaml.SafeLoader, crystal._YamlLoader
for path in {CONFIGS!r}:
    print(repr(config.load_config_file(path)))
print(repr(sorted(crystal._registry().items())))
"""
    expected = [repr(config.load_config_file(p)) for p in CONFIGS]
    expected.append(repr(sorted(crystal._registry().items())))
    assert _run(script).splitlines() == expected

