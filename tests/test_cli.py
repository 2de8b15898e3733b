"""Configuration parsing, text round-trips, and the command-line surface."""

import argparse
import json
import math
import os
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdcmaps import cli, compensation, config, mapio, maps, phasematch
from spdcmaps.errors import ConfigError, DataFormatError, FitError

LI_CFG = """\
pump.wavelength_nm: 351.1
crystal1.material: LiIO3
crystal1.length_mm: 0.59
crystal1.cut_deg: 51.95
crystal2.material: LiIO3
crystal2.length_mm: 0.59
crystal2.cut_deg: 51.95
grid.nx: 9
grid.ny: 9
"""

BBO_CFG = """\
pump.wavelength_nm: 405.0
crystal1.material: BBO
crystal1.length_mm: 0.6
crystal1.cut_deg: 29.3
crystal2.material: BBO
crystal2.length_mm: 0.6
crystal2.cut_deg: 29.3
grid.nx: 9
grid.ny: 9
tilt.theta_min_deg: 45.0
tilt.theta_max_deg: 55.0
tilt.n_samples: 3
"""


@pytest.fixture
def li_cfg(tmp_path):
    p = tmp_path / "li.yaml"
    p.write_text(LI_CFG)
    return str(p)


@pytest.fixture
def bbo_cfg(tmp_path):
    p = tmp_path / "bbo.yaml"
    p.write_text(BBO_CFG)
    return str(p)


# --------------------------------------------------------- configuration

def test_flat_and_nested_configs_agree(tmp_path):
    nested = tmp_path / "nested.yaml"
    nested.write_text(
        "pump:\n  wavelength_nm: 351.1\n"
        "crystal1:\n  material: LiIO3\n  length_mm: 0.59\n  cut_deg: 51.95\n"
        "crystal2:\n  material: LiIO3\n  length_mm: 0.59\n  cut_deg: 51.95\n"
        "grid:\n  nx: 9\n  ny: 9\n")
    flat = tmp_path / "flat.yaml"
    flat.write_text(LI_CFG)
    a = config.build_run_config(config.load_config_file(str(nested)))
    b = config.build_run_config(config.load_config_file(str(flat)))
    assert a.flat == b.flat


def test_defaults_fill_in(li_cfg):
    rc = config.build_run_config(config.load_config_file(li_cfg))
    assert rc.grid.nx == 9 and rc.grid.x_min == -60.0
    assert rc.source.detection_distance_mm == 1200.0
    assert rc.source.crystal1.axis_phi == 0.0
    assert rc.source.crystal2.axis_phi == math.radians(90.0)
    assert rc.filter_nm is None
    assert rc.tilt_phi_p == math.radians(90.0)
    assert rc.tilt_samples == 25
    assert rc.fit_line == "y=0"


def test_unknown_key_is_named(li_cfg):
    flat = config.load_config_file(li_cfg)
    flat["tilt.phi_p_rad"] = 1.57     # wrong unit suffix
    with pytest.raises(ConfigError, match="tilt.phi_p_rad"):
        config.build_run_config(flat)


def test_duplicate_key_between_layouts(tmp_path):
    p = tmp_path / "dup.yaml"
    p.write_text("pump.wavelength_nm: 405.0\npump:\n  wavelength_nm: 405.0\n")
    with pytest.raises(ConfigError, match="more than once"):
        config.load_config_file(str(p))


def test_missing_required_key(tmp_path):
    p = tmp_path / "bare.yaml"
    p.write_text("pump.wavelength_nm: 405.0\n")
    with pytest.raises(ConfigError, match="crystal1.material"):
        config.build_run_config(config.load_config_file(str(p)))


def test_type_errors_name_the_key(li_cfg):
    flat = config.load_config_file(li_cfg)
    for key, bad in (("crystal1.length_mm", "thick"),
                     ("grid.nx", 9.5),
                     ("tilt.n_samples", True),
                     ("source.include_z_offset_phase", "yes please"),
                     ("crystal1.length_mm", float("inf")),
                     ("crystal1.cut_deg", float("nan"))):
        broken = dict(flat)
        broken[key] = bad
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            config.build_run_config(broken)


def test_pump_wavelength_validity_both_ends(li_cfg):
    flat = config.load_config_file(li_cfg)
    flat["pump.wavelength_nm"] = 300.0        # below the material window
    with pytest.raises(ConfigError, match="pump.wavelength_nm"):
        config.build_run_config(flat)
    flat = config.load_config_file(li_cfg)
    flat.update({"crystal1.material": "BBO", "crystal2.material": "BBO",
                 "crystal1.cut_deg": 29.3, "crystal2.cut_deg": 29.3,
                 "crystal1.length_mm": 0.6, "crystal2.length_mm": 0.6,
                 "pump.wavelength_nm": 600.0})   # degenerate photon at 1200
    with pytest.raises(ConfigError, match="degenerate"):
        config.build_run_config(flat)


def test_filter_validation(li_cfg):
    flat = config.load_config_file(li_cfg)
    flat["filter.center_nm"] = 300.0          # below the pump
    with pytest.raises(ConfigError, match="filter.center_nm"):
        config.build_run_config(flat)
    flat["filter.center_nm"] = 690.0
    rc = config.build_run_config(flat)
    assert rc.filter_nm == 690.0


def test_filter_partner_must_stay_in_material_window(tmp_path):
    p = tmp_path / "b.yaml"
    p.write_text(BBO_CFG + "filter.center_nm: 1200.0\n")
    with pytest.raises(ConfigError, match="filter.center_nm"):
        config.build_run_config(config.load_config_file(str(p)))


def test_filter_partner_is_checked_at_the_sweeps_own_frequency(tmp_path):
    # 1 / (1/405 - 1/655.4198473282443) is 1060.0 nm, the edge of BBO's
    # window, but the sweep's partner, omega_p - omega_s, lies at
    # 1060.0000000000002 nm, outside it
    p = tmp_path / "b.yaml"
    p.write_text(BBO_CFG + "filter.center_nm: 655.4198473282443\n")
    with pytest.raises(ConfigError, match="1060.0000000000002") as exc:
        config.build_run_config(config.load_config_file(str(p)))
    assert exc.value.key == "filter.center_nm"


def test_structural_limits(li_cfg):
    flat = config.load_config_file(li_cfg)
    for key, bad in (("pump.theta_p_deg", 90.0),
                     ("source.mu", 1.2),
                     ("tilt.n_samples", 1),
                     ("fit.line", "diagonal"),
                     ("fit.line", "phi=nan"),
                     ("fit.line", "phi=inf"),
                     ("fit.line", "phi=-inf"),
                     ("grid.mode", "polar")):
        broken = dict(flat)
        broken[key] = bad
        with pytest.raises(ConfigError):
            config.build_run_config(broken)
    flat["tilt.theta_min_deg"] = 30.0
    flat["tilt.theta_max_deg"] = 30.0
    with pytest.raises(ConfigError, match="tilt.theta_max_deg"):
        config.build_run_config(flat)


def test_fit_line_azimuth_form_accepted(li_cfg):
    flat = config.load_config_file(li_cfg)
    flat["fit.line"] = "phi=12.5"
    assert config.build_run_config(flat).fit_line == "phi=12.5"


def test_parse_override_forms():
    assert config.parse_override("grid.nx=65") == ("grid.nx", 65)
    assert config.parse_override("pump.wavelength_nm=405.0") == \
        ("pump.wavelength_nm", 405.0)
    assert config.parse_override("source.include_z_offset_phase=true") == \
        ("source.include_z_offset_phase", True)
    assert config.parse_override("grid.x_min=-5e1") == ("grid.x_min", -50.0)
    assert config.parse_override('fit.line="5e6"') == ("fit.line", "5e6")
    with pytest.raises(ConfigError):
        config.parse_override("grid.nx")


def test_config_file_reads_exponent_floats(tmp_path):
    p = tmp_path / "exp.yaml"
    p.write_text(LI_CFG + "grid.x_min: 5e0\nsource.detection_distance_mm: "
                          "1.2e3\n")
    rc = config.build_run_config(config.load_config_file(str(p)))
    assert rc.grid.x_min == 5.0
    assert rc.source.detection_distance_mm == 1200.0


def test_shipped_configs_build():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("liio3_normal.yaml", "bbo_normal.yaml", "bbo_tilt52.yaml"):
        path = os.path.join(here, "configs", name)
        rc = config.build_run_config(config.load_config_file(path))
        assert rc.grid.nx >= 2


def test_empty_config_file_names_the_first_required_key(tmp_path, capsys):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    assert cli.main(["phase-match", "--config", str(p)]) == 2
    assert "pump.wavelength_nm" in capsys.readouterr().err


def test_config_file_holding_a_list_exits_config(tmp_path, capsys):
    p = tmp_path / "list.yaml"
    p.write_text("- pump.wavelength_nm: 405.0\n")
    assert cli.main(["phase-match", "--config", str(p)]) == 2
    assert "must hold a mapping" in capsys.readouterr().err


def test_unparsable_override_names_its_key(li_cfg, capsys):
    assert cli.main(["phase-match", "--config", li_cfg,
                     "--set", "pump.phi_p_deg=[1,"]) == 2
    assert "pump.phi_p_deg" in capsys.readouterr().err


def test_bool_override_builds_and_a_number_is_refused(li_cfg, capsys):
    flat = config.apply_overrides(config.load_config_file(li_cfg),
                                  ["source.include_z_offset_phase=true"])
    assert config.build_run_config(flat).source.include_z_offset_phase
    assert cli.main(["phase-match", "--config", li_cfg,
                     "--set", "source.include_z_offset_phase=1"]) == 2
    assert "source.include_z_offset_phase" in capsys.readouterr().err


def test_negative_pump_wavelength_exits_config(li_cfg, capsys):
    assert cli.main(["phase-match", "--config", li_cfg,
                     "--set", "pump.wavelength_nm=-405"]) == 2
    err = capsys.readouterr().err
    assert "must be positive" in err and "pump.wavelength_nm" in err


def test_pump_errors_are_the_library_ones_under_their_key(li_cfg):
    # the config path builds the pump and keys PumpConfig's own refusal
    flat = config.apply_overrides(config.load_config_file(li_cfg),
                                  ["pump.wavelength_nm=0"])
    with pytest.raises(ConfigError) as via_config:
        config.build_run_config(flat)
    with pytest.raises(ConfigError) as via_library:
        phasematch.PumpConfig(0.0)
    assert via_config.value.key == "pump.wavelength_nm"
    assert via_config.value.message == via_library.value.message


# ------------------------------------------------------------- map files

def _small_map():
    rc = config.build_run_config(config.apply_overrides(
        config._flatten(  # build from the literal defaults
            {"pump": {"wavelength_nm": 351.1},
             "crystal1": {"material": "LiIO3", "length_mm": 0.59,
                          "cut_deg": 51.95},
             "crystal2": {"material": "LiIO3", "length_mm": 0.59,
                          "cut_deg": 51.95}}, "", {}),
        ["grid.nx=7", "grid.ny=5", "grid.mode=angular_theta_phi",
         "grid.x_min=0.5", "grid.x_max=60.0",
         "grid.y_min=0.0", "grid.y_max=90.0"]))
    return maps.sweep_delay_map(rc.source, rc.grid, filter_center_nm=600.0)


def test_map_csv_roundtrip_exact(tmp_path):
    grid = _small_map()
    assert any(np.isnan(p).any() for p in grid.values)   # NA cells exercised
    path = tmp_path / "m.csv"
    mapio.write_map_csv(grid, str(path), "0.0-test")
    back = mapio.read_map_csv(str(path))
    assert back.same_data(grid)
    assert back.metadata == json.loads(json.dumps(grid.metadata))


def test_map_csv_bytes_stable(tmp_path):
    grid = _small_map()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    mapio.write_map_csv(grid, str(p1), "0.0-test")
    mapio.write_map_csv(grid, str(p2), "0.0-test")
    assert p1.read_bytes() == p2.read_bytes()


def test_sidecar_contents(tmp_path):
    grid = _small_map()
    out = tmp_path / "m.csv"
    mapio.write_map_csv(grid, str(out), "0.0-test")
    side = mapio.write_sidecar(str(out), grid, "0.0-test",
                               extra={"config": {"k": 1}})
    assert side == str(tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["kind"] == "delay" and doc["config"] == {"k": 1}
    assert "created_utc" in doc


def test_read_map_csv_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("x,y\n1,2\n")
    with pytest.raises(DataFormatError):
        mapio.read_map_csv(str(p))


def test_read_map_csv_skips_blank_lines_before_the_rows(tmp_path):
    grid = _small_map()
    p = tmp_path / "m.csv"
    mapio.write_map_csv(grid, str(p), "0.0-test")
    header, rows = p.read_text().split("\n# meta: ")
    meta, rows = rows.split("\n", 1)
    p.write_text(f"{header}\n# meta: {meta}\n\n  \n{rows}")
    assert mapio.read_map_csv(str(p)).same_data(grid)


def test_shipped_maps_need_no_per_value_formatting(tmp_path, monkeypatch,
                                                   capsys):
    # every value of these maps, coordinates included, is in the range
    # that _format writes in numpy; narrowing it past them fails here
    fallback, calls = mapio._fallback, []
    monkeypatch.setattr(mapio, "_fallback",
                        lambda v: calls.append(v) or fallback(v))
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    angular = ["--set", "grid.mode=angular_theta_phi",
               "--set", "grid.x_min=0", "--set", "grid.x_max=10",
               "--set", "grid.y_min=-180", "--set", "grid.y_max=180"]
    runs = [(name, extra) for name in ("liio3_normal", "bbo_normal")
            for extra in ([], ["--filter-nm", "702.2"])]
    runs.append(("bbo_normal", angular))
    for name, extra in runs:
        for command in ("phase-map", "delay-map"):
            out = tmp_path / f"{name}-{command}.csv"
            assert cli.main([command, "--config",
                             os.path.join(here, "configs", f"{name}.yaml"),
                             "--grid", "65x65", *extra,
                             "--out", str(out)]) == 0
            assert mapio.read_map_csv(str(out)).values[0].shape == (65, 65)
    capsys.readouterr()
    assert calls == []


def test_read_map_csv_rejects_truncation(tmp_path):
    grid = _small_map()
    p = tmp_path / "m.csv"
    mapio.write_map_csv(grid, str(p), "0.0-test")
    lines = p.read_text().splitlines()
    (tmp_path / "t.csv").write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(DataFormatError):
        mapio.read_map_csv(str(tmp_path / "t.csv"))
    mangled = lines[:]
    mangled[10] = mangled[10].replace(",", ",oops", 1)
    (tmp_path / "u.csv").write_text("\n".join(mangled) + "\n")
    with pytest.raises(DataFormatError):
        mapio.read_map_csv(str(tmp_path / "u.csv"))


def _drop_last_cell(lines):
    return lines[:12] + [lines[12].rsplit(",", 1)[0]] + lines[13:]


def _spoil_last_cell(lines):
    return lines[:12] + [lines[12].rsplit(",", 1)[0] + ",1.5x"] + lines[13:]


def _first_columns(n):
    # header lines 0-6 end with columns (5) and meta (6)
    def mangle(lines):
        def first(line):
            return ",".join(line.split(",")[:n])
        return lines[:5] + [first(lines[5])] + lines[6:7] + [
            first(row) for row in lines[7:]]
    return mangle


def _with_meta(text):
    return lambda lines: lines[:6] + [f"# meta: {text}"] + lines[7:]


_MANGLED = [
    (lambda lines: lines[:7], "expected 35 rows of 4 columns"),
    (_drop_last_cell, "expected 35 rows of 4 columns"),
    (_spoil_last_cell, "bad numeric cell"),
    (_first_columns(2), "fewer than two coordinates and a value"),
    (_with_meta('{"source": '), "bad header"),
    (_with_meta("[1, 2]"), "meta line is not a JSON object"),
]
_MANGLED_IDS = ["header-only", "ragged-row", "non-numeric-cell",
                "coordinates-only", "meta-bad-json", "meta-not-object"]


def _mangled_map(tmp_path, mangle):
    p = tmp_path / "m.csv"
    mapio.write_map_csv(_small_map(), str(p), "0.0-test")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(mangle(p.read_text().splitlines())) + "\n")
    return bad


@pytest.mark.parametrize("mangle, message", _MANGLED, ids=_MANGLED_IDS)
def test_read_map_csv_names_layout_errors(tmp_path, mangle, message):
    bad = _mangled_map(tmp_path, mangle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=message) as exc:
            mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")


def test_cli_fit_on_a_malformed_header_exits_io(tmp_path, capsys):
    for mangle in (_first_columns(2), _first_columns(1),
                   _with_meta("{oops"), _with_meta('"text"')):
        bad = _mangled_map(tmp_path, mangle)
        assert cli.main(["fit", "--profile", str(bad)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {bad}: ")
        assert "Traceback" not in err


# the writer as one loop over cells: the reference the codec must match
def _oracle_cell(v):
    v = float(v)
    return "NA" if math.isnan(v) else "%.17g" % v


def _oracle_table(title, header, rows):
    lines = [f"# {title}"] + [f"# {key}: {value}" for key, value in header]
    lines += [",".join(_oracle_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _meta_json(meta):
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _oracle_map(grid, version):
    ny, nx = grid.values[0].shape
    header = [("version", version), ("kind", grid.kind),
              ("mode", grid.mode), ("shape", f"{ny} {nx}"),
              ("columns", ",".join(grid.coord_names + grid.value_names)),
              ("meta", _meta_json(grid.metadata))]
    rows = [[grid.coord1[j], grid.coord2[i]] + [p[i, j] for p in grid.values]
            for i in range(ny) for j in range(nx)]
    return _oracle_table(mapio.FORMAT_NAME, header, rows)


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
                     1e-300, -1e-300]))


def _vectors(n):
    return st.lists(_CELLS, min_size=n, max_size=n).map(np.array)


@st.composite
def _map_grids(draw):
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    mode = draw(st.sampled_from((maps.DETECTION_MODE, maps.ANGULAR_MODE)))
    kind, value_names = draw(st.sampled_from(
        (("phase", ("phase_deg",)), ("delay", ("dt_s_fs", "dt_i_fs")))))
    return maps.MapGrid(
        kind=kind, mode=mode,
        coord1=draw(_vectors(nx)), coord2=draw(_vectors(ny)),
        coord_names=(("x_mm", "y_mm") if mode == maps.DETECTION_MODE
                     else ("theta_deg", "phi_deg")),
        value_names=value_names,
        values=tuple(draw(_vectors(nx * ny)).reshape(ny, nx)
                     for _ in value_names),
        metadata={"filter_nm": 702.2, "nx": nx})


def _same_bits(a, b):
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


@settings(max_examples=150, deadline=None)
@given(grid=_map_grids())
def test_map_codec_matches_the_per_cell_oracle(tmp_path_factory, grid):
    path = tmp_path_factory.mktemp("codec") / "m.csv"
    mapio.write_map_csv(grid, str(path), "0.0-test")
    assert path.read_bytes() == _oracle_map(grid, "0.0-test")
    back = mapio.read_map_csv(str(path))
    assert back.same_data(grid)
    assert back.metadata == grid.metadata
    for a, b in zip((grid.coord1, grid.coord2, *grid.values),
                    (back.coord1, back.coord2, *back.values)):
        assert _same_bits(a, b)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 9), width=st.integers(1, 3), data=st.data())
def test_profile_codec_matches_the_per_cell_oracle(tmp_path_factory, n,
                                                   width, data):
    arrays = [data.draw(_vectors(n)) for _ in range(width)]
    columns = tuple(f"c{k}" for k in range(width))
    meta = {"line": "y=0", "c0": 1.5}
    path = tmp_path_factory.mktemp("codec") / "p.csv"
    mapio.write_profile_csv(str(path), "0.0-test", columns, arrays, meta)
    want = _oracle_table(
        f"{mapio.FORMAT_NAME} profile",
        [("version", "0.0-test"), ("columns", ",".join(columns)),
         ("meta", _meta_json(meta))],
        [[a[i] for a in arrays] for i in range(n)])
    assert path.read_bytes() == want


def _ramp_grid(ny, nx):
    values = np.arange(ny * nx, dtype=float).reshape(ny, nx) / 7.0
    values[0, -1] = math.nan
    return maps.MapGrid(
        kind="phase", mode=maps.DETECTION_MODE,
        coord1=np.linspace(-1.0, 1.0, nx), coord2=np.linspace(-2.0, 2.0, ny),
        coord_names=("x_mm", "y_mm"), value_names=("phase_deg",),
        values=(values,), metadata={"nx": nx})


# blocks of 1 to 16 cells and of 1 to 64 characters of text: grid rows
# wider than a block (one row per block), partial last blocks, and lines
# and NA cells split across the reader's blocks
@settings(max_examples=100, deadline=None)
@given(grid=_map_grids(), cells=st.integers(1, 16), chars=st.integers(1, 64))
@example(grid=_ramp_grid(3, 9), cells=4, chars=5)
@example(grid=_ramp_grid(5, 3), cells=6, chars=1)
def test_map_codec_in_small_blocks_matches_the_per_cell_oracle(
        tmp_path_factory, grid, cells, chars):
    tmp = tmp_path_factory.mktemp("blocks")
    arrays = [plane.ravel() for plane in grid.values]
    with mock.patch.object(maps, "_CHUNK_CELLS", cells), \
            mock.patch.object(mapio, "_READ_CHARS", chars):
        mapio.write_map_csv(grid, str(tmp / "m.csv"), "0.0-test")
        back = mapio.read_map_csv(str(tmp / "m.csv"))
        mapio.write_profile_csv(str(tmp / "p.csv"), "0.0-test",
                                grid.value_names, arrays, {"c0": 1.5})
    assert (tmp / "m.csv").read_bytes() == _oracle_map(grid, "0.0-test")
    for a, b in zip((grid.coord1, grid.coord2, *grid.values),
                    (back.coord1, back.coord2, *back.values)):
        assert _same_bits(a, b)
    assert (tmp / "p.csv").read_bytes() == _oracle_table(
        f"{mapio.FORMAT_NAME} profile",
        [("version", "0.0-test"), ("columns", ",".join(grid.value_names)),
         ("meta", _meta_json({"c0": 1.5}))],
        zip(*arrays))


_LATE_DEFECTS = [
    (lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],
     "expected 35 rows of 4 columns"),
    (lambda lines: lines[:-2] + [lines[-2].rsplit(",", 1)[0] + ",1.5x",
                                 lines[-1]], "bad numeric cell"),
    (lambda lines: lines[:-5] + lines[-4:], "expected 35 rows of 4 columns"),
    (lambda lines: lines + lines[-1:], "expected 35 rows of 4 columns"),
]
_LATE_DEFECT_IDS = ["ragged-last-row", "non-numeric-late-cell",
                    "missing-row", "extra-row"]


@pytest.mark.parametrize("mangle, message", _LATE_DEFECTS,
                         ids=_LATE_DEFECT_IDS)
def test_read_map_csv_names_defects_past_the_first_block(tmp_path, mangle,
                                                         message):
    bad = _mangled_map(tmp_path, mangle)
    with mock.patch.object(mapio, "_READ_CHARS", 64), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=message) as exc:
            mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")


@pytest.mark.parametrize("shape", ["-1 -1", "0 5", "5000 5000"])
def test_map_shape_outside_the_grid_cap_is_a_format_error(tmp_path, capsys,
                                                          shape):
    # the header's shape, then one row of the map
    bad = _mangled_map(tmp_path, lambda lines: (
        lines[:4] + [f"# shape: {shape}"] + lines[5:8]))
    with pytest.raises(DataFormatError,
                       match=r"is not a grid of 1 to 2\^24 cells") as exc:
        mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")
    assert cli.main(["fit", "--profile", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bad}: ")
    assert "Traceback" not in err


def test_map_csv_memory_is_bounded_by_a_block(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rc = config.build_run_config(config.load_config_file(
        os.path.join(here, "configs", "bbo_normal.yaml")))
    grid = maps.sweep_delay_map(rc.source, replace(rc.grid, nx=513, ny=513),
                                filter_center_nm=702.2)
    path = str(tmp_path / "d.csv")
    tracemalloc.start()
    try:
        mapio.write_map_csv(grid, path, "0.0-test")
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = mapio.read_map_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.same_data(grid)
    # holding the whole text of this 14.7 MB file took 106 MB to write it
    # and 47 MB to read it; the parsed table and its transposed copy take 17
    assert write_peak < 8e6
    assert read_peak < 24e6


def test_map_csv_memory_of_a_one_column_map_is_bounded_by_a_block(tmp_path):
    # 262144 rows of one cell: with the y fields made for the whole axis
    # at once, writing this map peaked at 31 MB
    ny = 1 << 18
    values = np.random.default_rng(5).normal(size=(ny, 1)) * 100.0
    grid = maps.MapGrid(
        kind="phase", mode=maps.DETECTION_MODE, coord1=np.array([0.0]),
        coord2=np.linspace(-60.0, 60.0, ny), coord_names=("x_mm", "y_mm"),
        value_names=("phase_deg",), values=(values,), metadata={})
    path = str(tmp_path / "p.csv")
    tracemalloc.start()
    try:
        mapio.write_map_csv(grid, path, "0.0-test")
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak < 8e6
    assert mapio.read_map_csv(path).same_data(grid)


def test_map_csv_y_fields_that_widen_in_a_later_block_match_the_oracle(
        tmp_path):
    # blocks of two rows: the y texts of the second block are wider than
    # those of the first, and the later ones are -0, NA and inf
    ys = np.array([1.0, 2.0, 1.2345678901234567e-300, 5.0, -0.0, math.nan,
                   math.inf])
    grid = maps.MapGrid(
        kind="delay", mode=maps.DETECTION_MODE,
        coord1=np.array([-1.5, 0.0, 2.5e-7]), coord2=ys,
        coord_names=("x_mm", "y_mm"), value_names=("dt_s_fs", "dt_i_fs"),
        values=(np.arange(21.0).reshape(7, 3) / 3.0,
                np.full((7, 3), -1e300)), metadata={"nx": 3})
    path = tmp_path / "m.csv"
    with mock.patch.object(maps, "_CHUNK_CELLS", 6):
        assert maps._row_blocks(7, 3) == [(0, 2), (2, 4), (4, 6), (6, 7)]
        mapio.write_map_csv(grid, str(path), "0.0-test")
    assert path.read_bytes() == _oracle_map(grid, "0.0-test")


def test_map_csv_read_holds_one_copy_of_the_planes(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rc = config.build_run_config(config.load_config_file(
        os.path.join(here, "configs", "bbo_normal.yaml")))
    grid = maps.sweep_delay_map(rc.source, replace(rc.grid, nx=513, ny=513),
                                filter_center_nm=702.2)
    path = str(tmp_path / "d.csv")
    mapio.write_map_csv(grid, path, "0.0-test")
    tracemalloc.start()
    try:
        back = mapio.read_map_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.same_data(grid)
    # the four planes are 8.4 MB; a block of text and its parse are the
    # rest, where a parsed table and its transposed copy took 16.9 MB
    assert read_peak < 1.25 * 4 * 513 ** 2 * 8


def test_map_wider_than_a_delay_map_at_the_cap_is_a_format_error(
        tmp_path, capsys):
    # 16 KB of text whose header declares 2^24 cells of 1000 columns
    columns = ",".join(f"c{k}" for k in range(1000))
    bad = tmp_path / "wide.csv"
    bad.write_text("\n".join(
        [f"# {mapio.FORMAT_NAME}", "# version: 0.0-test", "# kind: phase",
         f"# mode: {maps.DETECTION_MODE}", "# shape: 4096 4096",
         f"# columns: {columns}", "# meta: {}"]
        + [",".join("0" * 1000)] * 8) + "\n")
    with pytest.raises(DataFormatError, match="more than 2\\^26 values") \
            as exc:
        mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")
    assert cli.main(["fit", "--profile", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bad}: ")
    assert "Traceback" not in err


def _digit_map_lines(tmp_path):
    """Header and body lines of a map of 64 rows of four one-digit cells."""
    grid = maps.MapGrid(
        kind="delay", mode=maps.DETECTION_MODE, coord1=np.arange(8.0),
        coord2=np.arange(8.0), coord_names=("x_mm", "y_mm"),
        value_names=("dt_s_fs", "dt_i_fs"),
        values=(np.zeros((8, 8)), np.ones((8, 8))), metadata={})
    path = tmp_path / "m.csv"
    mapio.write_map_csv(grid, str(path), "0.0-test")
    lines = path.read_text().splitlines()
    return lines[:7], lines[7:]


# a run of comment lines with a row's commas, and a blank line, each
# starting a block of the reader's text in mid-body; a block of nothing
# but comments makes loadtxt warn where the reader must name the shape
@pytest.mark.parametrize("chars", [1, 7, 64])
@pytest.mark.parametrize("non_rows", [["#,,,"] * 20, [""]],
                         ids=["comment-run", "blank-line"])
def test_non_rows_at_a_block_boundary_name_the_shape(tmp_path, chars,
                                                     non_rows):
    header, body = _digit_map_lines(tmp_path)
    # the reader takes its blocks from the second row of the body on
    r = next(r for r in range(32, 64)
             if sum(len(line) + 1 for line in body[1:r]) % chars == 0)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(header + body[:r] + non_rows + body[r:]) + "\n")
    with mock.patch.object(mapio, "_READ_CHARS", chars), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError,
                           match="expected 64 rows of 4 columns") as exc:
            mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")


# non-rows two rows into a 64-character block of the body, so that the
# rows they displace fall in later blocks, not past the last row; and
# rows missing from a file whose last line, a row, has no line end
@pytest.mark.parametrize("text", [
    lambda header, body: "\n".join(header + body[:35] + ["#,,,"] * 20
                                   + body[35:]) + "\n",
    lambda header, body: "\n".join(header + body[:35] + [""]
                                   + body[35:]) + "\n",
    lambda header, body: "\n".join(header + body[:35] + ["#,,,"]
                                   + body[35:]) + "\n",
    lambda header, body: "\n".join(header + body[:-3] + body[-1:]),
], ids=["comment-run", "blank-line", "comment-line", "no-line-end"])
def test_non_rows_among_the_rows_of_a_block_name_the_shape(tmp_path, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text(*_digit_map_lines(tmp_path)))
    with mock.patch.object(mapio, "_READ_CHARS", 64), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError,
                           match="expected 64 rows of 4 columns") as exc:
            mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")


# -------------------------------------------------------------- commands

def test_cli_phase_map_runs_and_is_byte_stable(tmp_path, li_cfg, capsys):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    for out in (out1, out2):
        code = cli.main(["phase-map", "--config", li_cfg, "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "p1.json").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_single_cell_matches_pointwise(tmp_path, li_cfg, capsys):
    out = tmp_path / "one.csv"
    code = cli.main(["phase-map", "--config", li_cfg, "--grid", "1x1",
                     "--set", "grid.x_min=23.0", "--set", "grid.x_max=23.0",
                     "--set", "grid.y_min=-7.0", "--set", "grid.y_max=-7.0",
                     "--out", str(out)])
    assert code == 0
    grid = mapio.read_map_csv(str(out))
    assert grid.values[0].shape == (1, 1)
    rc = config.build_run_config(config.load_config_file(li_cfg))
    th, ph = __import__("spdcmaps").vecgeom.detection_point_to_angles(
        23.0, -7.0, 1200.0)
    want = math.degrees(maps.relative_phase(
        rc.source, phasematch.EmissionCoord(0.5 * rc.source.pump.omega,
                                            float(th), float(ph))))
    assert grid.values[0][0, 0] == want


def test_cli_delay_map_columns_and_filter(tmp_path, li_cfg, capsys):
    out = tmp_path / "d.csv"
    code = cli.main(["delay-map", "--config", li_cfg,
                     "--filter-nm", "690.0", "--out", str(out)])
    assert code == 0
    grid = mapio.read_map_csv(str(out))
    assert grid.value_names == ("dt_s_fs", "dt_i_fs")
    assert grid.metadata["filter_nm"] == 690.0
    assert "dt_s_fs" in capsys.readouterr().out


def test_cli_grid_and_filter_flags_reach_the_sidecar(tmp_path, li_cfg,
                                                     capsys):
    out = tmp_path / "d.csv"
    assert cli.main(["delay-map", "--config", li_cfg, "--grid", "3x2",
                     "--filter-nm", "690", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "d.json").read_text())["config"]
    assert (side["grid.nx"], side["grid.ny"]) == (3, 2)
    assert side["filter.center_nm"] == 690.0


@pytest.mark.parametrize("cmd", ["phase-map", "delay-map"])
def test_cli_out_that_names_its_own_sidecar_exits_config(tmp_path, li_cfg,
                                                        capsys, cmd):
    # the sidecar of m.json is m.json: unrefused, it overwrote the map
    code = cli.main([cmd, "--config", li_cfg, "--out",
                     str(tmp_path / "m.json")])
    assert code == 2
    assert "--out" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["li.yaml"]


def test_cli_worker_count_does_not_change_bytes(tmp_path, li_cfg, capsys):
    outs = []
    for w in ("1", "3"):
        out = tmp_path / f"w{w}.csv"
        assert cli.main(["phase-map", "--config", li_cfg, "--workers", w,
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_worker_count_below_one_exits_config(tmp_path, li_cfg, capsys,
                                                  workers):
    for cmd in ("phase-map", "delay-map", "fit"):
        out = tmp_path / f"{cmd}.csv"
        assert cli.main([cmd, "--config", li_cfg, "--workers", workers,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "workers" in err and "Traceback" not in err
        assert not out.exists()


def test_cli_set_override_changes_result(tmp_path, li_cfg):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--out", str(a)]) == 0
    assert cli.main(["phase-map", "--config", li_cfg, "--out", str(b),
                     "--set", "crystal2.length_mm=0.3"]) == 0
    ga, gb = mapio.read_map_csv(str(a)), mapio.read_map_csv(str(b))
    assert not np.allclose(ga.values[0], gb.values[0])


def test_cli_bad_inputs_exit_config(tmp_path, li_cfg, capsys):
    code = cli.main(["phase-map", "--config", li_cfg,
                     "--set", "pump.wavelength_nm=300.0",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "pump.wavelength_nm" in capsys.readouterr().err
    code = cli.main(["phase-map", "--config", li_cfg,
                     "--set", "grid.rows=5",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "grid.rows" in capsys.readouterr().err
    code = cli.main(["phase-map", "--config", li_cfg, "--grid", "big",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    code = cli.main(["delay-map", "--config", li_cfg,
                     "--filter-nm", "100.0",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    code = cli.main(["phase-map", "--config", li_cfg, "--filter-nm", "inf",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "filter.center_nm" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["source.detection_distance_mm=1e-300",
                                      "grid.x_max=1e20"])
def test_cli_window_whose_farthest_corner_grazes_is_refused(
        tmp_path, bbo_cfg, capsys, override):
    # unrefused, 1e-300 mm gave dt_s_fs of 716-727 fs where the photon
    # grazes the face, and 1e20 mm gave NA cells with no partner at fault
    code = cli.main(["delay-map", "--config", bbo_cfg, "--set", override,
                     "--grid", "4x3", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: grid: ")
    assert [p.name for p in tmp_path.iterdir()] == ["bbo.yaml"]


def test_unknown_material_names_its_key_once(li_cfg, capsys):
    flat = config.load_config_file(li_cfg)
    flat["crystal1.material"] = "Quartz"
    with pytest.raises(ConfigError, match="unknown material") as exc:
        config.build_run_config(flat)
    assert exc.value.key == "crystal1.material"
    assert cli.main(["phase-match", "--config", li_cfg,
                     "--set", "crystal1.material=Quartz"]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: crystal1.material: unknown material 'Quartz'")


def test_cli_map_default_file_names(tmp_path, li_cfg, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, kind in (("phase-map", "phase"), ("delay-map", "delay")):
        assert cli.main([command, "--config", li_cfg, "--grid", "3x3"]) == 0
        assert mapio.read_map_csv(f"{kind}_map.csv").kind == kind
        assert (tmp_path / f"{kind}_map.json").exists()


def test_cli_io_failures_exit_io(tmp_path, li_cfg, capsys):
    assert cli.main(["phase-map", "--config",
                     str(tmp_path / "missing.yaml")]) == 4
    assert cli.main(["phase-map", "--config", li_cfg,
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 4
    assert cli.main(["fit", "--profile", str(tmp_path / "absent.csv")]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err


@pytest.mark.parametrize("command, flag, code, prefix", [
    ("phase-match", "--config", 2,
     "configuration error: cannot parse config file {}: "),
    ("fit", "--profile", 4, "i/o error: {}: not UTF-8 text"),
], ids=["config", "profile"])
def test_cli_file_that_is_not_utf8_is_a_named_error(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     flag, code, prefix):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"pump.wavelength_nm: 405\xff\n")
    assert cli.main([command, flag, str(bad)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix.format(bad))
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["bad.txt"]


def test_cli_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["frobnicate"])
    assert e.value.code == 2


def test_cli_phase_match_reports_angle(bbo_cfg, capsys):
    assert cli.main(["phase-match", "--config", bbo_cfg]) == 0
    out = capsys.readouterr().out
    assert "3.217150" in out
    assert "search bracket" in out


def test_cli_find_tilt_scan_only(bbo_cfg, capsys):
    assert cli.main(["find-tilt", "--config", bbo_cfg, "--scan"]) == 0
    out = capsys.readouterr().out
    assert "sign-change bracket" in out
    assert "self-compensating" not in out


def test_cli_find_tilt_full(bbo_cfg, capsys, monkeypatch):
    scans = []
    scan_tilt = compensation.scan_tilt

    def counted(*args, **kwargs):
        scans.append(args)
        return scan_tilt(*args, **kwargs)
    monkeypatch.setattr(compensation, "scan_tilt", counted)
    delays = []
    tilt_delay = compensation.tilt_delay

    def counted_delay(*args, **kwargs):
        delays.append(args)
        return tilt_delay(*args, **kwargs)
    monkeypatch.setattr(compensation, "tilt_delay", counted_delay)
    assert cli.main(["find-tilt", "--config", bbo_cfg]) == 0
    out = capsys.readouterr().out
    assert "self-compensating tilt: 51.22" in out
    assert "residual delay" in out
    assert len(scans) == 1
    # 3 scan samples, 7 solver steps inside the bracket, the re-check
    # and the printed root; the bracket ends come from the scan
    assert len(delays) == 12


def test_cli_find_tilt_no_solution(li_cfg, capsys):
    code = cli.main(["find-tilt", "--config", li_cfg,
                     "--set", "tilt.theta_max_deg=20.0",
                     "--set", "tilt.n_samples=5"])
    assert code == 3
    assert "no solution" in capsys.readouterr().err
    # negative tilts that carry the degenerate cone past 90 degrees
    shipped = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "configs")
    for argv in (["phase-match", "--config",
                  os.path.join(shipped, "bbo_normal.yaml"),
                  "--set", "pump.theta_p_deg=-76"],
                 ["find-tilt", "--config",
                  os.path.join(shipped, "bbo_tilt52.yaml"),
                  "--set", "tilt.theta_min_deg=-85",
                  "--set", "tilt.theta_max_deg=-70",
                  "--set", "tilt.n_samples=4"]):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "no solution" in err
        assert "Traceback" not in err


def _shipped(name):
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "configs", name)


def test_cli_all_na_map_is_a_named_error(tmp_path, capsys):
    # the shipped tilted config's axes are the untilted cuts, so no cell
    # of its detection window has a valid transit
    out = tmp_path / "tilt.csv"
    assert cli.main(["phase-map", "--config", _shipped("bbo_tilt52.yaml"),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "no cell" in err and "valid transit" in err
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "tilt.json").exists()


def test_cli_phase_match_failure_speaks_degrees(capsys):
    assert cli.main(["phase-match", "--config",
                     _shipped("bbo_tilt52.yaml")]) == 3
    err = capsys.readouterr().err
    assert "deg" in err and "/mm" in err
    assert "0.00174532925" not in err


def test_cli_fit_from_config_and_from_profile(tmp_path, li_cfg, capsys):
    prof = tmp_path / "prof.csv"
    assert cli.main(["fit", "--config", li_cfg, "--grid", "33x5",
                     "--out", str(prof)]) == 0
    out_cfg = capsys.readouterr().out
    assert "quadratic c0" in out_cfg
    header = prof.read_text().splitlines()
    assert header[0].endswith("profile")
    cols = next(l for l in header if l.startswith("# columns:"))
    assert cols.split(": ")[1] == "theta_deg,phase_deg,slope_deg_per_deg"
    meta = json.loads(next(l for l in header if l.startswith("# meta:"))
                      .split(": ", 1)[1])
    assert meta["c2"] > 0.0

    pm = tmp_path / "pm.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "33x5",
                     "--out", str(pm)]) == 0
    capsys.readouterr()
    prof2 = tmp_path / "prof2.csv"
    assert cli.main(["fit", "--profile", str(pm), "--out", str(prof2)]) == 0
    meta2 = json.loads(next(
        l for l in prof2.read_text().splitlines()
        if l.startswith("# meta:")).split(": ", 1)[1])
    assert meta2["c2"] == pytest.approx(meta["c2"], rel=1e-12)
    assert meta2["rms_residual"] == pytest.approx(meta["rms_residual"],
                                                  rel=1e-9)


def test_cli_fit_profile_of_a_delay_map_names_its_columns(tmp_path, li_cfg,
                                                          capsys):
    dm = tmp_path / "dm.csv"
    assert cli.main(["delay-map", "--config", li_cfg, "--grid", "33x33",
                     "--out", str(dm)]) == 0
    capsys.readouterr()
    prof = tmp_path / "prof.csv"
    assert cli.main(["fit", "--profile", str(dm), "--out", str(prof)]) == 0
    header = prof.read_text().splitlines()
    cols = next(l for l in header if l.startswith("# columns:"))
    assert cols.split(": ")[1] == "theta_deg,dt_s_fs,slope_fs_per_deg"
    grid = mapio.read_map_csv(str(dm))
    fit = maps.fit_quadratic_profile(grid)
    theta, dt, slope = np.loadtxt(str(prof), delimiter=",", comments="#",
                                  unpack=True)
    assert np.array_equal(dt, grid.values[0][16])  # the y = 0 row
    assert np.array_equal(theta, np.degrees(fit.thetas))
    assert np.array_equal(slope, np.radians(1.0) * fit.slope(fit.thetas))


# meta lines whose detection distance fit cannot use
_BAD_DISTANCES = {
    "missing": '{"filter_nm": 702.2}',
    "source-not-object": '{"source": 5}',
    "text": '{"source": {"detection_distance_mm": "abc"}}',
    "zero": '{"source": {"detection_distance_mm": 0}}',
    "negative": '{"source": {"detection_distance_mm": -1200}}',
    "bool": '{"source": {"detection_distance_mm": true}}',
    "nan": '{"source": {"detection_distance_mm": NaN}}',
    "inf": '{"source": {"detection_distance_mm": 1e999}}',
}


@pytest.mark.parametrize("meta", _BAD_DISTANCES.values(),
                         ids=_BAD_DISTANCES.keys())
def test_cli_fit_needs_a_finite_positive_detection_distance(tmp_path, li_cfg,
                                                            capsys, meta):
    pm = tmp_path / "pm.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "9x3",
                     "--out", str(pm)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(_with_meta(meta)(pm.read_text().splitlines()))
                   + "\n")
    out = tmp_path / "fit.csv"
    for line in ("y=0", "x=0"):
        assert cli.main(["fit", "--profile", str(bad), "--line", line,
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "no solution: grid metadata lacks the detection distance")
        assert "Traceback" not in err and not out.exists()


def test_cli_fit_on_an_unknown_grid_mode_exits_io(tmp_path, li_cfg, capsys):
    pm = tmp_path / "pm.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "9x3",
                     "--out", str(pm)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text(pm.read_text().replace(f"# mode: {maps.DETECTION_MODE}\n",
                                          "# mode: bogus\n"))
    with pytest.raises(DataFormatError, match="unknown grid mode 'bogus'"):
        mapio.read_map_csv(str(bad))
    out = tmp_path / "fit.csv"
    for line in ("y=0", "phi=0"):
        assert cli.main(["fit", "--profile", str(bad), "--line", line,
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {bad}: unknown grid mode")
        assert "Traceback" not in err and not out.exists()


def _relabel(key, value):
    return lambda text: "".join(
        f"# {key}: {value}\n" if line.startswith(f"# {key}: ") else line
        for line in text.splitlines(keepends=True))


# map headers whose kind or columns are not a pair the sweeps write
_RELABELLED = {
    "unknown-kind": ("phase-map", _relabel("kind", "bogus"),
                     "unknown map kind 'bogus'"),
    "angular-names": ("phase-map",
                      _relabel("columns", "theta_deg,phi_deg,phase_deg"),
                      "columns unlike a detection_plane_xy phase map"),
    "delay-as-phase": ("delay-map", _relabel("kind", "phase"),
                       "columns unlike a detection_plane_xy phase map"),
    "delay-names": ("phase-map", _relabel("columns", "x_mm,y_mm,dt_s_fs"),
                    "columns unlike a detection_plane_xy phase map"),
}


@pytest.mark.parametrize("command, relabel, message", _RELABELLED.values(),
                         ids=_RELABELLED.keys())
def test_cli_fit_on_a_relabelled_map_exits_io(tmp_path, li_cfg, capsys,
                                              command, relabel, message):
    # each read back with exit 0 before the reader checked kind and columns
    written = tmp_path / "m.csv"
    assert cli.main([command, "--config", li_cfg, "--grid", "9x3",
                     "--out", str(written)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text(relabel(written.read_text()))
    with pytest.raises(DataFormatError, match=message) as exc:
        mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--profile", str(bad), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bad}: ")
    assert "Traceback" not in err and not out.exists()


def _set_coordinate(column, row, col, value):
    # the cell at grid (row, col) of a 9-wide map, rows after 7 header lines
    def edit(text):
        lines = text.splitlines(keepends=True)
        cells = lines[7 + 9 * row + col].split(",")
        cells[column] = value
        lines[7 + 9 * row + col] = ",".join(cells)
        return "".join(lines)
    return edit


@pytest.mark.parametrize("edit, row", [
    (_set_coordinate(0, 4, 2, "17.5"), 4),    # an x unlike row 0's
    (_set_coordinate(1, 6, 5, "-999"), 6),    # a y unlike its row's first
    (_set_coordinate(0, 0, 3, "17.5"), 1),    # row 0's own x, the reference
    (_set_coordinate(1, 3, 0, "-999"), 3),    # a row's first y
    (_set_coordinate(0, 5, 8, "NA"), 5),
], ids=["x", "y", "x-of-row-0", "first-y", "x-na"])
def test_cli_fit_on_a_map_whose_coordinates_are_not_a_grid_exits_io(
        tmp_path, li_cfg, capsys, edit, row):
    # each read back with exit 0 before the reader checked the coordinates
    written = tmp_path / "m.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "9x9",
                     "--out", str(written)]) == 0
    capsys.readouterr()
    assert mapio.read_map_csv(str(written)).values[0].shape == (9, 9)
    bad = tmp_path / "bad.csv"
    bad.write_text(edit(written.read_text()))
    with pytest.raises(DataFormatError,
                       match=f"coordinates of row {row} are not those of a "
                             f"grid") as exc:
        mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--profile", str(bad), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bad}: ")
    assert "Traceback" not in err and not out.exists()


_ANGULAR_WINDOW = ["--set", "grid.mode=angular_theta_phi",
                   "--set", "grid.x_min=0", "--set", "grid.x_max=10",
                   "--set", "grid.y_min=-90", "--set", "grid.y_max=90"]
_Y_WINDOW = ["--set", "grid.y_min=20", "--set", "grid.y_max=60"]


@pytest.mark.parametrize("window, line", [
    (_ANGULAR_WINDOW, "phi=270"),   # the -90 row, but not inside the window
    (_ANGULAR_WINDOW, "phi=-450"),
    (_ANGULAR_WINDOW, "phi=135.001"),   # half the 90 degree step past 90
    (_Y_WINDOW, "y=0")], ids=["phi-270", "phi-minus-450", "phi-past-half",
                              "y-below"])
def test_cli_fit_line_outside_the_window_is_a_named_error(
        tmp_path, li_cfg, capsys, monkeypatch, window, line):
    # before the check the nearest row was fitted, and fit exited 0
    pm = tmp_path / "pm.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "9x3",
                     "--out", str(pm), *window]) == 0
    capsys.readouterr()
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--profile", str(pm), "--line", line,
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"no solution: line {line!r} lies outside")
    assert "Traceback" not in err and not out.exists()

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the line was checked")
    monkeypatch.setattr(maps, "sweep_phase_map", no_sweep)
    assert cli.main(["fit", "--config", li_cfg, "--grid", "9x3",
                     "--out", str(out), *window, "--line", line]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: fit.line: line {line!r} "
                          f"lies outside")
    assert "Traceback" not in err and not out.exists()


def test_fit_line_window_is_the_span_and_half_a_step():
    xs = np.linspace(-60.0, 60.0, 9)
    mode = maps.ANGULAR_MODE
    for line, index in (("phi=135", 2), ("phi=-135", 0), ("phi=44", 1)):
        assert maps._line_index(
            mode, (xs, np.array([-90.0, 0.0, 90.0])), line) == (1, index)
    # a one-value axis holds only its own line
    assert maps._line_index(mode, (xs, np.array([30.0])), "phi=30") == (1, 0)
    for line in ("phi=30.0000001", "phi=29.9999999"):
        with pytest.raises(FitError, match="outside the map's phi_deg"):
            maps._line_index(mode, (xs, np.array([30.0])), line)
    detection = maps.DETECTION_MODE
    assert maps._line_index(detection, (xs, xs), "x=0") == (0, 4)
    with pytest.raises(FitError, match="outside the map's y_mm window"):
        maps._line_index(detection, (xs, xs + 68.0), "y=0")


def test_cli_fit_rejects_a_non_finite_azimuth(tmp_path, li_cfg, capsys):
    pm = tmp_path / "ang.csv"
    angular = ["--set", "grid.mode=angular_theta_phi", "--set", "grid.x_min=-2",
               "--set", "grid.x_max=2", "--set", "grid.y_min=0",
               "--set", "grid.y_max=90"]
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "9x3",
                     "--out", str(pm), *angular]) == 0
    capsys.readouterr()
    for phi in ("nan", "inf", "-inf"):
        out = tmp_path / f"fit_{phi}.csv"
        assert cli.main(["fit", "--profile", str(pm), "--line", f"phi={phi}",
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("no solution: bad azimuth")
        assert "Traceback" not in err and not out.exists()
        assert cli.main(["fit", "--config", li_cfg, "--grid", "9x3",
                         "--out", str(out), *angular,
                         "--set", f"fit.line=phi={phi}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "fit.line" in err
        assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--config", None), ("--set", "fit.line=x=0"), ("--grid", "3x3"),
    ("--filter-nm", "702.2")])
def test_cli_fit_profile_refuses_config_flags(tmp_path, li_cfg, capsys,
                                              flag, value):
    pm = tmp_path / "pm.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "9x3",
                     "--out", str(pm)]) == 0
    capsys.readouterr()
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--profile", str(pm), "--out", str(out),
                     flag, li_cfg if value is None else value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flag}: ")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("workers", ["0", "2"])
def test_cli_fit_profile_refuses_workers(tmp_path, li_cfg, capsys, workers):
    # the file is fitted as written: no sweep runs for --workers to share
    pm = tmp_path / "pm.csv"
    assert cli.main(["phase-map", "--config", li_cfg, "--grid", "9x9",
                     "--out", str(pm)]) == 0
    capsys.readouterr()
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--profile", str(pm), "--out", str(out),
                     "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --workers: ")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("line", ["diag", "phi=nan"])
def test_cli_fit_line_flag_is_the_config_key(tmp_path, li_cfg, capsys, line):
    out = tmp_path / "fit.csv"
    errs = []
    for how in (["--line", line], ["--set", f"fit.line={line}"]):
        assert cli.main(["fit", "--config", li_cfg, "--grid", "9x3",
                         "--out", str(out), *how]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("configuration error: fit.line: ")
    assert not out.exists()


_ANGULAR = ["--set", "grid.mode=angular_theta_phi", "--set", "grid.x_min=0",
            "--set", "grid.y_min=0"]


@pytest.mark.parametrize("how", [
    _ANGULAR,                               # default y=0 on an angular grid
    _ANGULAR + ["--line", "x=0"],
    ["--set", "fit.line=phi=45"],           # azimuth on a detection plane
    ["--line", "phi=0"]])
def test_cli_fit_line_must_exist_on_the_grid_mode(tmp_path, li_cfg, capsys,
                                                  monkeypatch, how):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the line was checked")
    monkeypatch.setattr(maps, "sweep_phase_map", no_sweep)
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--config", li_cfg, "--grid", "9x3",
                     "--out", str(out), *how]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: fit.line: ")
    assert "Traceback" not in err and not out.exists()


def test_cli_maps_on_an_angular_grid_ignore_the_fit_line(tmp_path, li_cfg):
    # only fit reads fit.line, so the map commands keep its default
    for command in ("phase-map", "delay-map"):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", li_cfg, "--grid", "9x3",
                         "--out", str(out), *_ANGULAR]) == 0
        assert out.exists()


@pytest.mark.parametrize("command", ["phase-match", "find-tilt"])
def test_cli_out_only_on_commands_that_write(tmp_path, bbo_cfg, capsys,
                                             command):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as e:
        cli.main([command, "--config", bbo_cfg, "--out", str(out)])
    assert e.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


def test_cli_solves_to_the_documented_tolerances(bbo_cfg, capsys,
                                                 monkeypatch):
    seen = {}
    for mod in (phasematch, compensation):
        def recording(func, lo, hi, xtol, _name=mod.__name__,
                      _solve=mod.bisect_secant):
            seen.setdefault(_name, set()).add(xtol)
            return _solve(func, lo, hi, xtol=xtol)
        monkeypatch.setattr(mod, "bisect_secant", recording)
    assert cli.main(["phase-match", "--config", bbo_cfg]) == 0
    assert seen == {"spdcmaps.phasematch": {1e-12}}
    assert cli.main(["find-tilt", "--config", bbo_cfg]) == 0
    assert seen == {"spdcmaps.phasematch": {1e-12},
                    "spdcmaps.compensation": {1e-6}}
    assert "self-compensating tilt: 51.22" in capsys.readouterr().out


def test_cli_fit_needs_some_input(capsys):
    assert cli.main(["fit"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["find-tilt", "--scan", "--set", "tilt.n_samples=10001"],
     "tilt.n_samples"),
    (["find-tilt", "--scan", "--set", "tilt.n_samples=100000000"],
     "tilt.n_samples"),
    (["phase-map", "--grid", "4097x4097"], "grid"),
    (["delay-map", "--grid", "1x16777217"], "grid"),
    (["fit", "--grid", "100000x100000"], "grid"),
], ids=["samples-cap", "samples-huge", "phase-grid", "delay-grid",
        "fit-grid"])
def test_cli_caps_on_unbounded_inputs(tmp_path, bbo_cfg, capsys, monkeypatch,
                                     argv, key):
    # rejected while the config is built: no sweep or scan may start
    def no_work(*args, **kwargs):
        raise AssertionError("a capped input reached the computation")
    for mod, name in ((maps, "sweep_phase_map"), (maps, "sweep_delay_map"),
                      (compensation, "scan_tilt")):
        monkeypatch.setattr(mod, name, no_work)
    out = tmp_path / "big.csv"
    extra = ["--out", str(out)] if argv[0] != "find-tilt" else []
    assert cli.main(argv + ["--config", bbo_cfg] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key}: ")
    assert "cap" in err or "10000" in err
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "big.json").exists()


def test_caps_admit_their_bounds(bbo_cfg):
    flat = config.load_config_file(bbo_cfg)
    flat.update({"tilt.n_samples": 10000, "grid.nx": 4096, "grid.ny": 4096})
    rc = config.build_run_config(flat)
    assert rc.tilt_samples == 10000 and rc.grid.nx * rc.grid.ny == 2 ** 24


@pytest.mark.parametrize("window", [
    ["--set", "grid.x_min=-1e308", "--set", "grid.x_max=1e308"],
    ["--set", "grid.mode=angular_theta_phi", "--set", "grid.x_min=0",
     "--set", "grid.x_max=5", "--set", "grid.y_min=-1e308",
     "--set", "grid.y_max=1e308"]], ids=["detection", "angular"])
def test_cli_grid_whose_span_overflows_is_a_config_error(tmp_path, capsys,
                                                        window):
    out = tmp_path / "wide.csv"
    argv = ["phase-map", "--config", _shipped("bbo_normal.yaml"),
            "--grid", "5x5", *window, "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_grid_whose_polar_sine_rounds_to_one_is_a_config_error(
        tmp_path, capsys):
    out = tmp_path / "graze.csv"
    argv = ["phase-map", "--config", _shipped("bbo_normal.yaml"),
            "--grid", "1x1", "--set", "grid.mode=angular_theta_phi",
            "--set", "grid.x_min=89.99999999",
            "--set", "grid.x_max=89.99999999",
            "--set", "grid.y_min=0", "--set", "grid.y_max=0",
            "--filter-nm", "900", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid: ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, length", [
    ("phase-map", "crystal2.length_mm", "1e302"),
    ("delay-map", "crystal2.length_mm", "1e306"),
    ("phase-map", "crystal1.length_mm", "1000.0000000001"),
    ("delay-map", "crystal1.length_mm", "1e308"),
], ids=["phase-1e302", "delay-1e306", "just-above-cap", "delay-1e308"])
def test_cli_crystal_length_above_the_cap_is_a_config_error(
        tmp_path, capsys, command, key, length):
    # before the cap these overflowed the kernels and were blamed on the
    # partner photon (exit 3)
    out = tmp_path / "long.csv"
    argv = [command, "--config", _shipped("bbo_normal.yaml"), "--grid", "5x5",
            "--set", f"{key}={length}", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key}: ")
    assert "cap" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["phase-map", "delay-map"])
def test_cli_crystal_length_at_the_cap_is_admitted(tmp_path, capsys,
                                                   command):
    out = tmp_path / "cap.csv"
    argv = [command, "--config", _shipped("bbo_normal.yaml"), "--grid", "5x5",
            "--set", "crystal1.length_mm=1000",
            "--set", "crystal2.length_mm=1000", "--out", str(out)]
    assert cli.main(argv) == 0
    grid = mapio.read_map_csv(str(out))
    assert grid.metadata["source"]["crystal2"]["length_mm"] == 1000.0
    assert all(np.isfinite(v).all() for v in grid.values)


def test_readme_command_block_names_each_subcommand_once():
    # the block CI runs as written: the "spdcmaps " lines from
    # "## Command line" to "## File formats", one per parser subcommand
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Command line"):
                   text.index("\n## File formats")]
    named = [line.split()[1] for line in section.splitlines()
             if line.startswith("spdcmaps ")]
    [sub] = [a for a in cli._build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert sorted(named) == sorted(sub.choices)
