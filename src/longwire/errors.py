"""Exception types shared across the package."""

__all__ = [
    "LongwireError", "InvalidCodeGroup", "InconsistentMeasurements", "GridError", "GridSyntaxError",
    "CapacityError", "DuplicateOccupancy", "GuardBlocked",
]


class LongwireError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidCodeGroup(LongwireError):
    """A 10-bit group is not a valid data character for the current disparity."""

    def __init__(self, group, reason: str):
        self.group = tuple(group)
        self.reason = reason
        super().__init__(f"invalid 10b group {''.join(str(b) for b in self.group)}: {reason}")


class InconsistentMeasurements(LongwireError):
    """Window measurements imply contradictory key bits (only noise can cause this)."""


class GridError(LongwireError):
    """Problem in a routing-grid description; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GridSyntaxError(GridError):
    pass


class CapacityError(GridError):
    pass


class DuplicateOccupancy(GridError):
    """Two spans claim the same (column, track) with overlapping extents."""


class GuardBlocked(LongwireError):
    """A guard track is already held by a foreign core."""

    def __init__(self, wire_id: str, blockers):
        self.wire_id = wire_id
        self.blockers = tuple(blockers)
        names = ", ".join(f"{s.wire_id} (core {s.core_id}, track {s.track})" for s in self.blockers)
        super().__init__(f"cannot guard {wire_id}: blocked by {names}")
