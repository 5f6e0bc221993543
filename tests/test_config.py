import re
from dataclasses import fields

import pytest

from longwire import DeviceProfile, MeasurementConfig
from longwire.config import load_setup, parse_distance_atten, parse_kv

BASE = MeasurementConfig()


def setup_from(tmp_path, text, base=BASE):
    path = tmp_path / "setup.profile"
    path.write_text(text)
    return load_setup(path, base)


class TestParseKV:
    def test_basic(self):
        parsed = parse_kv("a = 1\n# comment\nb=2 # tail\n\n")
        assert parsed == {"a": "1", "b": "2"}

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_kv("just words\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_kv("a = 1\na = 2\n")
        for text in ("= 1\n", "a = 1\nb =\n", "a = # no value\n"):
            with pytest.raises(ValueError, match=f"^line {text.count(chr(10))}: expected 'key = value'$"):
                parse_kv(text)


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
    def test_defaults_when_empty(self, tmp_path):
        assert setup_from(tmp_path, "# nothing set\n") == (DeviceProfile(), BASE)
        base = MeasurementConfig(log2_ticks=21, f_clk_hz=50e6)
        assert setup_from(tmp_path, "", base) == (DeviceProfile(), base)

    def test_overrides(self, tmp_path):
        profile, cfg = setup_from(
            tmp_path, "noise_sigma = 0.3\ndistance_atten = 1:0.8,2:0.01\nlog2_ticks = 13\n"
        )
        assert profile.noise_sigma == 0.3
        assert profile.attenuation(1) == 0.8
        assert profile.attenuation(3) == 0.0
        assert profile.base_rate == DeviceProfile().base_rate
        assert cfg == MeasurementConfig(log2_ticks=13)

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^unknown profile keys: noise, ticks$"):
            setup_from(tmp_path, "ticks = 13\nnoise_sigma = 0.3\nnoise = 1.0\n")

    def test_measurement_keys(self, tmp_path):
        base = MeasurementConfig(log2_ticks=21, f_clk_hz=50e6)
        profile, cfg = setup_from(tmp_path, "log2_ticks = 15\nf_clk_hz = 200e6\n", base)
        assert (profile, cfg) == (DeviceProfile(), MeasurementConfig(log2_ticks=15, f_clk_hz=200e6))
        # a key the file leaves out keeps the base's value
        assert setup_from(tmp_path, "f_clk_hz = 200e6\n", base)[1] == MeasurementConfig(21, 200e6)
        assert setup_from(tmp_path, "log2_ticks = 15\n", base)[1] == MeasurementConfig(15, 50e6)
        with pytest.raises(ValueError):
            setup_from(tmp_path, "log2_ticks = 15.5\n")
        with pytest.raises(ValueError, match=r"^log2_ticks must be an int in \[1, 32\], got 40$"):
            setup_from(tmp_path, "log2_ticks = 40\n")


# A profile line whose value does not parse, and the message of the field's rule that refuses its text.
UNPARSED = {
    "base_rate = abc": "base_rate must be a finite number > 0, got 'abc'",
    "noise_sigma = 0.8.1": "noise_sigma must be a finite number >= 0, got '0.8.1'",
    "f_clk_hz = fast": "f_clk_hz must be a finite number > 0, got 'fast'",
    "log2_ticks = 2.5": "log2_ticks must be an int in [1, 32], got '2.5'",
    "log2_ticks = 0x10": "log2_ticks must be an int in [1, 32], got '0x10'",
    "distance_atten = 1:x": "distance_atten multiplier for d=1 must be a finite number >= 0, got 'x'",
    "distance_atten = a:1": "distance_atten key must be an int >= 1, got 'a'",
    "distance_atten = 1:1.0, 2.0:0.05": "distance_atten key must be an int >= 1, got '2.0'",
}


class TestValuesThatDoNotParse:
    @pytest.mark.parametrize("line", UNPARSED)
    def test_the_message_names_the_key(self, tmp_path, line):
        with pytest.raises(ValueError, match=f"^{re.escape(UNPARSED[line])}$"):
            setup_from(tmp_path, line + "\n")


class TestShippedProfiles:
    def test_default_profile_file_matches_builtin(self, docs_dir):
        path = docs_dir / "profiles" / "default.profile"
        assert load_setup(path, BASE) == (DeviceProfile(), MeasurementConfig(log2_ticks=21))

    @pytest.mark.parametrize("name", ["virtex5", "virtex6", "artix7", "drifty"])
    def test_alternate_profiles_load(self, docs_dir, name):
        profile, cfg = load_setup(docs_dir / "profiles" / f"{name}.profile", BASE)
        assert profile.base_rate > 0
        assert cfg == MeasurementConfig(log2_ticks=21)  # the file's, not BASE's 13


PROFILE_FLOATS = [f.name for f in fields(DeviceProfile) if f.name != "distance_atten"]


class TestNonFiniteValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", PROFILE_FLOATS + ["f_clk_hz"])
    def test_float_field_rejected(self, tmp_path, key, value):
        limits = {"base_rate": "> 0", "stage_beta": "> 0", "f_clk_hz": "> 0", "drift_reversion": "in [0, 1]"}
        message = f"{key} must be a finite number {limits.get(key, '>= 0')}, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            setup_from(tmp_path, f"{key} = {value}\n")

    @pytest.mark.parametrize("atten", ["1:nan", "1:inf", "1:1.0, 2:nan", "1:1.0, 2:-inf"])
    def test_distance_multiplier_rejected(self, tmp_path, atten):
        d, _, value = atten.split(", ")[-1].partition(":")
        message = f"distance_atten multiplier for d={d} must be a finite number >= 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            setup_from(tmp_path, f"distance_atten = {atten}\n")
