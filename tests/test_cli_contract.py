"""The command-line contract: any command, shipped config and overrides
end in exit 0, 2, 3 or 4 with no escaping exception (warnings are errors
under the test configuration)."""

import contextlib
import io
import math
import os

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcmaps import cli, config

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
SHIPPED = sorted(name for name in os.listdir(CONFIGS)
                 if name.endswith(".yaml"))
COMMANDS = ("phase-map", "delay-map", "phase-match", "find-tilt", "fit")
# the commands that sweep a grid and write a file
SWEEPS = ("phase-map", "delay-map", "fit")
PREFIXES = {2: "configuration error: ", 3: "no solution: ", 4: "i/o error: "}

_SCALARS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308,
                       5e-324, -2.5e-310, 0.0, -0.0])
    | st.integers(-2 ** 70, 2 ** 70)
    | st.booleans()
    | st.text(max_size=12))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=5)


def _yaml_text(value):
    """One override value as the YAML text --set parses."""
    text = yaml.safe_dump(value, default_flow_style=True, width=1 << 16)
    return text.removesuffix("\n...\n").rstrip("\n")


_OVERRIDES = st.lists(
    st.tuples(st.sampled_from(sorted(config._KEYS) + ["pump.colour"]),
              _VALUES),
    max_size=3)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(COMMANDS), shipped=st.sampled_from(SHIPPED),
       overrides=_OVERRIDES)
def test_cli_exits_with_a_documented_code(tmp_path_factory, command,
                                          shipped, overrides):
    # a value drawn as a string is passed as raw text, anything else as
    # its YAML form
    argv = [command, "--config", os.path.join(CONFIGS, shipped)]
    for key, value in overrides:
        text = value if isinstance(value, str) else _yaml_text(value)
        argv += ["--set", f"{key}={text}"]
    argv += ["--set", "tilt.n_samples=4"]
    if command in SWEEPS:
        out = tmp_path_factory.mktemp("contract") / "out.csv"
        argv += ["--grid", "4x3", "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().startswith(PREFIXES[code])
        assert "Traceback" not in err.getvalue()
