"""Emission-cone relative-phase and time-delay maps for two-crystal
photon-pair sources, with pump-tilt self-compensation search.

The public surface re-exported here covers the usual workflow: describe
the source (CrystalSpec, PumpConfig, SourceConfig), evaluate pointwise
(relative_phase, time_delay, time_intervals) or on grids (sweep_phase_map,
sweep_delay_map, or several kinds in one pass with sweep_maps), analyze
profiles (fit_quadratic_profile), and search pump tilts (scan_tilt,
refine_tilt, or both at once with find_self_compensating_tilt).  Angles
are radians and frequencies rad/fs everywhere inside the library;
degrees/nm/mm appear only at the CLI and config boundary.
"""

__version__ = "0.1.0"

from .crystal import (C_NM_FS, CrystalSpec, Material, available_materials,
                      get_material, group_index, nm_from_omega,
                      omega_from_nm, walkoff_angle)
from .errors import (ConfigError, DataFormatError, FitError,
                     KinematicsError, NoSolutionError, RangeError,
                     RefractionError, SpdcError)
from .phasematch import (EmissionCoord, PumpConfig, amplitude_weight,
                         conjugate, degenerate_emission_angle, delta_kappa,
                         pump_internal_state)
from .maps import (ANGULAR_MODE, DETECTION_MODE, GROUP_ALONG_RAY,
                   GROUP_ALONG_WAVEVECTOR, GridSpec, MapGrid, QuadraticFit,
                   SourceConfig, fit_quadratic_profile, profile_line,
                   relative_phase, source_snapshot, sweep_delay_map,
                   sweep_maps, sweep_phase_map, time_delay, time_intervals)
from .compensation import (DELAY_TOLERANCE_FS, TiltSample, TiltScanResult,
                           constrained_pump_state,
                           find_self_compensating_tilt, refine_tilt,
                           scan_tilt, tilt_delay, tracked_target)
from .config import RunConfig, build_run_config, load_config_file
from .mapio import read_map_csv, write_map_csv, write_sidecar

__all__ = [name for name in dir() if not name.startswith("_")]
