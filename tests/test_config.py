from dataclasses import fields

import pytest

from longwire import DeviceProfile, MeasurementConfig
from longwire.config import (
    load_measurement,
    load_profile,
    measurement_from_mapping,
    parse_distance_atten,
    parse_kv,
    profile_from_mapping,
)


class TestParseKV:
    def test_basic(self):
        parsed = parse_kv("a = 1\n# comment\nb=2 # tail\n\n")
        assert parsed == {"a": "1", "b": "2"}

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_kv("just words\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_kv("a = 1\na = 2\n")


class TestDistanceAtten:
    def test_parses_pairs(self):
        assert parse_distance_atten("1:1.0, 2:0.05") == {1: 1.0, 2: 0.05}
        assert parse_distance_atten("1:0.9") == {1: 0.9}

    @pytest.mark.parametrize(
        "text, distance", [("1:1.0, 2:0.05, 2:0.9", 2), ("1:0.5, 1:0.9", 1)]
    )
    def test_rejects_repeated_distance(self, text, distance):
        with pytest.raises(ValueError, match=f"repeats distance {distance}$"):
            parse_distance_atten(text)

    def test_rejects_bare_values(self):
        with pytest.raises(ValueError):
            parse_distance_atten("1.0 0.05")
        with pytest.raises(ValueError):
            parse_distance_atten("")


class TestProfileMapping:
    def test_defaults_when_empty(self):
        assert profile_from_mapping({}) == DeviceProfile()

    def test_overrides(self):
        profile = profile_from_mapping(
            {"noise_sigma": "0.3", "distance_atten": "1:0.8,2:0.01", "log2_ticks": "13"}
        )
        assert profile.noise_sigma == 0.3
        assert profile.attenuation(1) == 0.8
        assert profile.attenuation(3) == 0.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown profile keys"):
            profile_from_mapping({"noise": "1.0"})

    def test_measurement_keys(self):
        cfg = measurement_from_mapping({"log2_ticks": "15", "f_clk_hz": "200e6"})
        assert cfg == MeasurementConfig(log2_ticks=15, f_clk_hz=200e6)
        assert measurement_from_mapping({}) == MeasurementConfig()


class TestShippedProfiles:
    def test_default_profile_file_matches_builtin(self, docs_dir):
        path = docs_dir / "profiles" / "default.profile"
        assert load_profile(path) == DeviceProfile()
        assert load_measurement(path) == MeasurementConfig(log2_ticks=21)

    @pytest.mark.parametrize("name", ["virtex5", "virtex6", "artix7", "drifty"])
    def test_alternate_profiles_load(self, docs_dir, name):
        profile = load_profile(docs_dir / "profiles" / f"{name}.profile")
        assert profile.base_rate > 0


PROFILE_FLOATS = [f.name for f in fields(DeviceProfile) if f.name != "distance_atten"]


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", PROFILE_FLOATS + ["f_clk_hz"])
    def test_float_field_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.profile"
        path.write_text(f"{key} = {value}\n")
        load = load_measurement if key == "f_clk_hz" else load_profile
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            load(path)

    @pytest.mark.parametrize("atten", ["1:nan", "1:inf", "1:1.0, 2:nan", "1:1.0, 2:-inf"])
    def test_distance_multiplier_rejected(self, tmp_path, atten):
        path = tmp_path / "bad.profile"
        path.write_text(f"distance_atten = {atten}\n")
        with pytest.raises(ValueError, match="distance_atten multiplier for d=[12] must be finite"):
            load_profile(path)
