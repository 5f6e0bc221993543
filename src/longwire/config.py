"""Flat key-value config files for device profiles and measurement setups.

Format: one ``key = value`` per line, ``#`` comments, keys matching the
field names of DeviceProfile / MeasurementConfig.  The distance map is
written as ``d:multiplier`` pairs, e.g. ``distance_atten = 1:1.0, 2:0.05``.
Unknown keys are rejected so typos do not silently fall back to defaults.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import Mapping

from .channel import DeviceProfile, MeasurementConfig

__all__ = [
    "parse_kv",
    "parse_distance_atten",
    "profile_from_mapping",
    "measurement_from_mapping",
    "load_profile",
    "load_measurement",
]

_PROFILE_KEYS = {f.name for f in fields(DeviceProfile)}
_MEASUREMENT_KEYS = {f.name for f in fields(MeasurementConfig)}


def parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_distance_atten(text: str) -> dict[int, float]:
    atten: dict[int, float] = {}
    for item in text.replace(",", " ").split():
        d, _, mult = item.partition(":")
        if not mult:
            raise ValueError(f"distance_atten entry {item!r} must look like d:multiplier")
        multiplier, distance = float(mult), int(d)
        if distance in atten:
            raise ValueError(f"distance_atten repeats distance {distance}")
        atten[distance] = multiplier
    if not atten:
        raise ValueError("distance_atten must contain at least one entry")
    return atten


def _check_keys(mapping: Mapping[str, str], allowed: set[str], what: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


def profile_from_mapping(mapping: Mapping[str, str]) -> DeviceProfile:
    relevant = {k: v for k, v in mapping.items() if k not in _MEASUREMENT_KEYS}
    _check_keys(relevant, _PROFILE_KEYS, "profile")
    kwargs: dict = {}
    for key, value in relevant.items():
        if key == "distance_atten":
            kwargs[key] = parse_distance_atten(value)
        else:
            kwargs[key] = float(value)
    return DeviceProfile(**kwargs)


def measurement_from_mapping(
    mapping: Mapping[str, str], default: MeasurementConfig | None = None
) -> MeasurementConfig:
    base = default if default is not None else MeasurementConfig()
    kwargs = {"log2_ticks": base.log2_ticks, "f_clk_hz": base.f_clk_hz}
    if "log2_ticks" in mapping:
        kwargs["log2_ticks"] = int(mapping["log2_ticks"])
    if "f_clk_hz" in mapping:
        kwargs["f_clk_hz"] = float(mapping["f_clk_hz"])
    return MeasurementConfig(**kwargs)


def load_profile(path: str | os.PathLike) -> DeviceProfile:
    with open(path, encoding="utf-8") as fh:
        return profile_from_mapping(parse_kv(fh.read()))


def load_measurement(
    path: str | os.PathLike, default: MeasurementConfig | None = None
) -> MeasurementConfig:
    with open(path, encoding="utf-8") as fh:
        return measurement_from_mapping(parse_kv(fh.read()), default=default)
