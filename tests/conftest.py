import pathlib

import pytest

from longwire import DeviceProfile, Geometry, MeasurementConfig
from longwire.patterns import lfsr_next

DOCS_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs"


def stimulus_oracle(spec, i):
    """(duty, toggle_rate, bit) of window i, from the spec alone, one window at a time.

    An LFSR is replayed from its seed for every index.  A dynamic4 loop
    sends no bit; its toggle rate is 1/16 per transition of the looped
    4-bit code (one high pulse per loop is 1/8 per tick).
    """
    if spec.kind == "dynamic4":
        transitions = sum(spec.code[k] != spec.code[(k + 1) % 4] for k in range(4))
        return spec.code.count("1") / 4, transitions / 16, None
    if spec.kind == "alternating":
        bit = i % 2
    elif spec.kind == "longruns":
        bit = (i // spec.run_len) % 2
    elif spec.kind == "lfsr":
        state = spec.lfsr_seed
        for _ in range(i + 1):
            bit, state = lfsr_next(state, spec.taps)
    else:  # custom, cycling
        bit = spec.bits[i % len(spec.bits)]
    return float(bit), 0.0, bit


@pytest.fixture
def profile():
    return DeviceProfile()


@pytest.fixture
def quiet_profile():
    """No Gaussian noise, no drift; only counter quantization remains."""
    return DeviceProfile(noise_sigma=0.0, drift_rate=0.0, drift_bound=0.0)


@pytest.fixture
def cfg13():
    return MeasurementConfig(log2_ticks=13)


@pytest.fixture
def cfg21():
    return MeasurementConfig(log2_ticks=21)


@pytest.fixture
def geom22():
    return Geometry(v_t=2, v_r=2, d=1)


@pytest.fixture
def docs_dir():
    return DOCS_DIR
