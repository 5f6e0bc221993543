"""Toolkit for the FPGA long-wire crosstalk channel.

Simulates ring-oscillator count measurements of a transmitter wire's
duty cycle, layers a Manchester/8b10b covert channel on top, recovers
keys from sliding-window Hamming-weight observations, and audits
routing grids for exposed sensitive wires.
"""

from .audit import (
    GuardPlan,
    LongWireSpan,
    RoutingGrid,
    apply_guard_plan,
    find_exposures,
    parse_grid,
    placement_success_probability,
    plan_guards,
    serialize_grid,
)
from .channel import (
    STREAM_VERSION,
    CountTrace,
    DeviceProfile,
    Geometry,
    MeasurementConfig,
    Orientation,
    drift_step,
    expected_count,
    expected_delta_rc,
    simulate_counts,
    simulate_trace,
    simulate_window,
)
from .code8b10b import decode_8b10b, encode_8b10b
from .codec import (
    Frame,
    LineCode,
    channel_bandwidth,
    frame_sync,
    manchester_decode,
    manchester_encode,
    simulate_covert_transfer,
)
from .errors import (
    GuardBlocked,
    InconsistentMeasurements,
    InvalidCodeGroup,
    LongwireError,
)
from .exfil import (
    ExfilChannel,
    KeyBits,
    RecoveryResult,
    Relation,
    RelationSet,
    infer_relations,
    monte_carlo_recovery_rate,
    multi_window_recover,
    propagate,
    recovery_probability,
    run_schedule,
    single_window_recover,
    window_hw_oracle,
)
from .patterns import PatternSpec, lfsr_next, window_stimulus
from .stats import bit_error_rate, ks_two_sample, mean_ci, paired_delta_rc

__version__ = "0.1.0"
