"""Run-configuration files: flat key-value text with fixed sections.

Sections are [teleporter], [source], [spectrum] and [timetrace]; every key
has a default, unknown sections or keys are errors (fail closed), and values
carrying dB units keep an explicit ``_db`` suffix. Errors name the offending
field as ``section.key``. The table ``_KEYS`` is the one list of keys, with
each key's default and parser.

Syntax: one ``key = value`` or ``key: value`` per line, split at the first
``=`` or ``:``; keys are case-insensitive, section names are not. A line
whose first character is ``#`` or ``;`` is a comment; blank lines are
skipped and leading or trailing space is dropped. There are no continuation
lines: an indented line stands alone. ``[DEFAULT]`` is an unknown section,
and a header is the whole line. A line of no other form, a key outside any
section, a repeated section and a key repeated in one section are refused
naming the line. A leading UTF-8 byte-order mark is ignored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .spectral import (BAND_EDGE_THZ, MAX_GRID_POINTS, LowFreqExcess,
                       SqueezingProfile)
from .teleporter import MIN_N_SQ, Regime, TeleporterConfig
from .timetrace import (DT_PS, FILTER_SHAPES, MAX_DURATION_NS, MAX_ENOB,
                        MAX_ENSEMBLE_VAR_SHOT, MAX_WINDOW_PS, SldSourceSpec,
                        max_traces)


class ConfigError(Exception):
    """Malformed or out-of-range configuration; message names the field."""


@dataclass(frozen=True)
class SpectrumParams:
    n_sq_center: float
    rolloff_bandwidth_thz: float | None
    excess_cutoff_thz: float
    excess_amplitude_db: float
    excess_exponent: float
    grid_points: int
    band_edge_thz: float
    exclude_below_thz: float
    jitter_sigma_db: float

    def profile(self) -> SqueezingProfile:
        excess = LowFreqExcess(self.excess_cutoff_thz, self.excess_amplitude_db,
                               self.excess_exponent)
        return SqueezingProfile(self.n_sq_center, self.rolloff_bandwidth_thz,
                                excess)


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
    raw: dict = field(default_factory=dict)  # snapshot for manifests


def _bounded(path: str, value, low=None, high=None, low_open=False):
    if low is not None and (value <= low if low_open else value < low):
        bound = "greater than" if low_open else "at least"
        raise ConfigError(f"{path}: must be {bound} {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{path}: must be at most {high}, got {value}")
    return value


# A parser reads (path, text, done): ``done`` holds the values parsed so far,
# by section and key.

def _float(low=None, high=None, low_open=False, words=None):
    """Parser of a finite float in [low, high] (above ``low`` if
    ``low_open``); ``words`` maps a word to its value as a function of
    ``done``."""
    def parse(path, text, done):
        word = text.strip().lower()
        if words and word in words:
            return words[word](done)
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{path}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {text!r}")
        return _bounded(path, value, low, high, low_open)
    return parse


def _int(low, high):
    def parse(path, text, done):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{path}: not an integer: {text!r}") from None
        return _bounded(path, value, low, high)
    return parse


def _n_traces(path, text, done):
    # as many traces of the configured duration as one batch holds
    return _int(1, max_traces(done["timetrace"]["duration_ns"]))(path, text, done)


def _choice(choices, convert=str):
    def parse(path, text, done):
        value = text.strip().lower()
        if value not in choices:
            raise ConfigError(f"{path}: must be one of {sorted(choices)}, "
                              f"got {value!r}")
        return convert(value)
    return parse


# section -> key -> (default text, parser): the one list of known keys. Each
# key is a field of its section's record, and sections and keys are parsed
# in this order.
_KEYS = {
    "teleporter": {
        "n_sq": ("0.178", _float(MIN_N_SQ, 1.0)),
        "eta_bell": ("0.9", _float(0.0, 1.0, low_open=True)),
        "eta_meas": ("0.9", _float(0.0, 1.0, low_open=True)),
        "ff_gain_db": ("60.0", _float()),
        "regime": ("quantum", _choice([r.value for r in Regime], Regime)),
    },
    "source": {
        "baseband_bandwidth_ghz": ("55.0", _float(0.0, low_open=True)),
        "ensemble_var_shot": ("29.0", _float(0.0, MAX_ENSEMBLE_VAR_SHOT)),
        "filter_shape": ("gaussian", _choice(FILTER_SHAPES)),
    },
    "spectrum": {
        "n_sq_center": ("auto", _float(MIN_N_SQ, 1.0, words={
            "auto": lambda done: done["teleporter"]["n_sq"]})),
        "rolloff_bandwidth_thz": ("flat", _float(0.0, low_open=True, words={
            "flat": lambda done: None})),
        "excess_cutoff_thz": ("0.0", _float(0.0)),
        "excess_amplitude_db": ("0.0", _float()),
        "excess_exponent": ("2.0", _float(0.0)),
        "grid_points": ("401", _int(2, MAX_GRID_POINTS)),
        "band_edge_thz": ("1.0", _float(0.0, BAND_EDGE_THZ, low_open=True)),
        "exclude_below_thz": ("0.2", _float(0.0)),
        "jitter_sigma_db": ("0.06", _float(0.0)),
    },
    "timetrace": {
        "duration_ns": ("8.0", _float(0.0, MAX_DURATION_NS, low_open=True)),
        "n_traces": ("128", _n_traces),
        # a window shorter than one sample period leaves some window empty
        "window_ps": ("42.0", _float(DT_PS, MAX_WINDOW_PS)),
        "enob": ("0", _int(0, MAX_ENOB)),
    },
}
_RECORDS = {"teleporter": TeleporterConfig, "source": SldSourceSpec,
            "spectrum": SpectrumParams, "timetrace": TimetraceParams}


# a key, its delimiter (the first '=' or ':') and its value
_OPTION = re.compile(r"([^=:]*)[=:](.*)")


def _sections(text: str, origin: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` of config text, read in one pass."""
    sections, keys = {}, None
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        if len(line) > 2 and line[0] == "[" and line[-1] == "]":
            if line[1:-1] not in sections:
                keys = sections[line[1:-1]] = {}
                continue
        elif (option := _OPTION.match(line)) and keys is not None:
            key = option[1].rstrip().lower()
            if key and key not in keys:
                keys[key] = option[2].strip()
                continue
        raise ConfigError(f"cannot parse {origin}: line {number}: {line}")
    return sections


def parse_config_text(text: str, origin: str = "<string>") -> RunConfig:
    raw = {section: {key: default for key, (default, _) in keys.items()}
           for section, keys in _KEYS.items()}
    for section, values in _sections(text, origin).items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in values.items():
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            raw[section][key] = value

    done, records = {}, {}
    for section, keys in _KEYS.items():
        done[section] = {}
        for key, (_, parse) in keys.items():
            done[section][key] = parse(f"{section}.{key}", raw[section][key], done)
        try:
            records[section] = _RECORDS[section](**done[section])
        except ValueError as exc:
            # the parsers range-check every field but the feedforward gain,
            # whose range TeleporterConfig checks against eta_bell
            raise ConfigError(f"teleporter.ff_gain_db: {exc}") from None
    return RunConfig(**records, raw=raw)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, origin=str(path))
