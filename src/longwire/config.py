"""Flat key-value profile files: a device profile and its measurement setup.

Format: one ``key = value`` per line, ``#`` comments, keys matching the
field names of DeviceProfile / MeasurementConfig.  The distance map is
written as ``d:multiplier`` pairs, e.g. ``distance_atten = 1:1.0, 2:0.05``.
Unknown keys are rejected so typos do not silently fall back to defaults,
and a value that is no number reaches its field's rule as text, by name.
"""

from __future__ import annotations

import os
from dataclasses import fields, replace

from .channel import DeviceProfile, MeasurementConfig
from .patterns import _parsed

__all__ = ["parse_kv", "parse_distance_atten", "load_setup"]

_PROFILE_KEYS = {f.name for f in fields(DeviceProfile)}
# MeasurementConfig's fields, each with the type its value is read as.
_MEASUREMENT_TYPES = {"log2_ticks": int, "f_clk_hz": float}


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
        multiplier, distance = _parsed(mult, float), _parsed(d)
        if distance in atten:
            raise ValueError(f"distance_atten repeats distance {distance}")
        atten[distance] = multiplier
    if not atten:
        raise ValueError("distance_atten must contain at least one entry")
    return atten


def load_setup(
    path: str | os.PathLike, base: MeasurementConfig
) -> tuple[DeviceProfile, MeasurementConfig]:
    """The profile file's device, and ``base`` with the file's measurement keys applied.

    Profile keys the file leaves out keep DeviceProfile's defaults.
    """
    with open(path, encoding="utf-8") as fh:
        mapping = parse_kv(fh.read())
    unknown = set(mapping) - _PROFILE_KEYS - set(_MEASUREMENT_TYPES)
    if unknown:
        raise ValueError(f"unknown profile keys: {', '.join(sorted(unknown))}")
    profile = DeviceProfile(**{
        key: parse_distance_atten(value) if key == "distance_atten" else _parsed(value, float)
        for key, value in mapping.items() if key in _PROFILE_KEYS
    })
    cfg = replace(base, **{
        key: _parsed(mapping[key], read) for key, read in _MEASUREMENT_TYPES.items() if key in mapping
    })
    return profile, cfg
