"""Configuration parsing, text round-trips, and the command-line surface."""

import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcmaps import cli, compensation, config, mapio, maps, phasematch
from spdcmaps.errors import ConfigError, DataFormatError

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


def test_structural_limits(li_cfg):
    flat = config.load_config_file(li_cfg)
    for key, bad in (("pump.theta_p_deg", 90.0),
                     ("source.mu", 1.2),
                     ("tilt.n_samples", 1),
                     ("fit.line", "diagonal"),
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


@pytest.mark.parametrize("mangle, message", [
    (lambda lines: lines[:7], "expected 35 rows of 4 columns"),
    (_drop_last_cell, "expected 35 rows of 4 columns"),
    (_spoil_last_cell, "bad numeric cell"),
], ids=["header-only", "ragged-row", "non-numeric-cell"])
def test_read_map_csv_names_layout_errors(tmp_path, mangle, message):
    p = tmp_path / "m.csv"
    mapio.write_map_csv(_small_map(), str(p), "0.0-test")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(mangle(p.read_text().splitlines())) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match=message) as exc:
            mapio.read_map_csv(str(bad))
    assert str(exc.value).startswith(f"{bad}: ")


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


def test_cli_worker_count_does_not_change_bytes(tmp_path, li_cfg, capsys):
    outs = []
    for w in ("1", "3"):
        out = tmp_path / f"w{w}.csv"
        assert cli.main(["phase-map", "--config", li_cfg, "--workers", w,
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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


def test_cli_io_failures_exit_io(tmp_path, li_cfg, capsys):
    assert cli.main(["phase-map", "--config",
                     str(tmp_path / "missing.yaml")]) == 4
    assert cli.main(["phase-map", "--config", li_cfg,
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 4
    assert cli.main(["fit", "--profile", str(tmp_path / "absent.csv")]) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err


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


def test_cli_fit_needs_some_input(capsys):
    assert cli.main(["fit"]) == 2
    assert "configuration error" in capsys.readouterr().err
