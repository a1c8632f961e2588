"""Run-configuration files: flat key-value text with fixed sections.

Sections are [teleporter], [source], [spectrum] and [timetrace]; every key
has a default, unknown sections or keys are errors (fail closed), and values
carrying dB units keep an explicit ``_db`` suffix. Errors name the offending
field as ``section.key``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .spectral import MAX_GRID_POINTS, LowFreqExcess, SqueezingProfile
from .teleporter import Regime, TeleporterConfig
from .timetrace import (FILTER_SHAPES, MAX_DURATION_NS, MAX_ENOB, MAX_WINDOW_PS,
                        SldSourceSpec, max_traces)


class ConfigError(Exception):
    """Malformed or out-of-range configuration; message names the field."""


@dataclass(frozen=True)
class SpectrumParams:
    n_sq_center: float
    rolloff_bandwidth_thz: float | None
    excess: LowFreqExcess
    grid_points: int
    band_edge_thz: float
    exclude_below_thz: float
    jitter_sigma_db: float

    def profile(self) -> SqueezingProfile:
        return SqueezingProfile(self.n_sq_center, self.rolloff_bandwidth_thz,
                                self.excess)


@dataclass(frozen=True)
class TimetraceParams:
    duration_ns: float
    n_traces: int
    window_ps: float
    enob: int  # 0 disables quantization


@dataclass(frozen=True)
class RunConfig:
    teleporter: TeleporterConfig
    source: SldSourceSpec
    spectrum: SpectrumParams
    timetrace: TimetraceParams
    auto_tap: bool  # teleporter.tap_reflectivity = auto: calibrated per point
    raw: dict = field(default_factory=dict)  # snapshot for manifests


_DEFAULTS = {
    "teleporter": {
        "n_sq": "0.178",
        "eta_bell": "0.9",
        "eta_meas": "0.9",
        "ff_gain_db": "60.0",
        "regime": "quantum",
        "tap_reflectivity": "auto",
    },
    "source": {
        "baseband_bandwidth_ghz": "55.0",
        "attenuation_db": "25.0",
        "ensemble_var_shot": "29.0",
        "filter_shape": "gaussian",
    },
    "spectrum": {
        "n_sq_center": "auto",  # defaults to teleporter n_sq
        "rolloff_bandwidth_thz": "flat",
        "excess_cutoff_thz": "0.0",
        "excess_amplitude_db": "0.0",
        "excess_exponent": "2.0",
        "grid_points": "401",
        "band_edge_thz": "1.0",
        "exclude_below_thz": "0.2",
        "jitter_sigma_db": "0.06",
    },
    "timetrace": {
        "duration_ns": "8.0",
        "n_traces": "128",
        "window_ps": "42.0",
        "enob": "0",
    },
}


def _parse_float(raw: dict, section: str, key: str, low=None, high=None,
                 low_open=False, high_open=False) -> float:
    path = f"{section}.{key}"
    try:
        value = float(raw[section][key])
    except ValueError:
        raise ConfigError(f"{path}: not a number: {raw[section][key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {raw[section][key]!r}")
    if low is not None and (value <= low if low_open else value < low):
        bound = "greater than" if low_open else "at least"
        raise ConfigError(f"{path}: must be {bound} {low}, got {value}")
    if high is not None and (value >= high if high_open else value > high):
        bound = "less than" if high_open else "at most"
        raise ConfigError(f"{path}: must be {bound} {high}, got {value}")
    return value


def _parse_int(raw: dict, section: str, key: str, low=None, high=None) -> int:
    path = f"{section}.{key}"
    try:
        value = int(raw[section][key])
    except ValueError:
        raise ConfigError(f"{path}: not an integer: {raw[section][key]!r}") from None
    if low is not None and value < low:
        raise ConfigError(f"{path}: must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{path}: must be at most {high}, got {value}")
    return value


def _parse_choice(raw: dict, section: str, key: str, choices) -> str:
    value = raw[section][key].strip().lower()
    if value not in choices:
        raise ConfigError(f"{section}.{key}: must be one of {sorted(choices)}, "
                          f"got {value!r}")
    return value


def parse_config_text(text: str, origin: str = "<string>") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {origin}: {exc}") from None

    raw = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser[section].items():
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            raw[section][key] = value

    n_sq = _parse_float(raw, "teleporter", "n_sq", low=0.0, high=1.0, low_open=True)
    eta_bell = _parse_float(raw, "teleporter", "eta_bell", low=0.0, high=1.0,
                            low_open=True)
    eta_meas = _parse_float(raw, "teleporter", "eta_meas", low=0.0, high=1.0,
                            low_open=True)
    ff_gain_db = _parse_float(raw, "teleporter", "ff_gain_db")
    regime = Regime(_parse_choice(raw, "teleporter", "regime",
                                  {"quantum", "classical"}))
    tap = raw["teleporter"]["tap_reflectivity"].strip().lower()
    if tap == "auto":
        tap_reflectivity = None
    else:
        tap_reflectivity = _parse_float(raw, "teleporter", "tap_reflectivity",
                                        low=0.0, high=1.0, low_open=True,
                                        high_open=True)
    try:
        teleporter = TeleporterConfig(n_sq=n_sq, eta_bell=eta_bell,
                                      eta_meas=eta_meas, ff_gain_db=ff_gain_db,
                                      regime=regime,
                                      tap_reflectivity=tap_reflectivity)
    except ValueError as exc:
        # the parser has range-checked n_sq, the efficiencies and an explicit
        # tap already, so what is left is the feedforward gain range
        raise ConfigError(f"teleporter.ff_gain_db: {exc}") from None

    source = SldSourceSpec(
        baseband_bandwidth_ghz=_parse_float(raw, "source", "baseband_bandwidth_ghz",
                                            low=0.0, low_open=True),
        attenuation_db=_parse_float(raw, "source", "attenuation_db", low=0.0),
        ensemble_var_shot=_parse_float(raw, "source", "ensemble_var_shot", low=0.0),
        filter_shape=_parse_choice(raw, "source", "filter_shape",
                                   set(FILTER_SHAPES)),
    )

    center = raw["spectrum"]["n_sq_center"].strip().lower()
    if center == "auto":
        n_sq_center = n_sq
    else:
        n_sq_center = _parse_float(raw, "spectrum", "n_sq_center",
                                   low=0.0, high=1.0, low_open=True)
    rolloff = raw["spectrum"]["rolloff_bandwidth_thz"].strip().lower()
    if rolloff == "flat":
        rolloff_bw = None
    else:
        rolloff_bw = _parse_float(raw, "spectrum", "rolloff_bandwidth_thz",
                                  low=0.0, low_open=True)
    spectrum = SpectrumParams(
        n_sq_center=n_sq_center,
        rolloff_bandwidth_thz=rolloff_bw,
        excess=LowFreqExcess(
            cutoff_thz=_parse_float(raw, "spectrum", "excess_cutoff_thz", low=0.0),
            amplitude_db=_parse_float(raw, "spectrum", "excess_amplitude_db"),
            exponent=_parse_float(raw, "spectrum", "excess_exponent", low=0.0),
        ),
        grid_points=_parse_int(raw, "spectrum", "grid_points", low=2,
                               high=MAX_GRID_POINTS),
        band_edge_thz=_parse_float(raw, "spectrum", "band_edge_thz",
                                   low=0.0, low_open=True),
        exclude_below_thz=_parse_float(raw, "spectrum", "exclude_below_thz", low=0.0),
        jitter_sigma_db=_parse_float(raw, "spectrum", "jitter_sigma_db", low=0.0),
    )

    duration_ns = _parse_float(raw, "timetrace", "duration_ns", low=0.0,
                               low_open=True, high=MAX_DURATION_NS)
    timetrace = TimetraceParams(
        duration_ns=duration_ns,
        n_traces=_parse_int(raw, "timetrace", "n_traces", low=1,
                            high=max_traces(duration_ns)),
        window_ps=_parse_float(raw, "timetrace", "window_ps",
                               low=0.0, low_open=True, high=MAX_WINDOW_PS),
        enob=_parse_int(raw, "timetrace", "enob", low=0, high=MAX_ENOB),
    )

    return RunConfig(teleporter=teleporter, source=source, spectrum=spectrum,
                     timetrace=timetrace, auto_tap=tap_reflectivity is None,
                     raw=raw)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, origin=str(path))
