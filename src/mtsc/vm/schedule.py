"""Gas schedule: per-operation costs and the block gas limit.

Defaults follow mainnet-like magnitudes. A schedule can be loaded from a
flat `key=value` text file; unknown keys are rejected, missing keys keep
their defaults. Every entry lies in [0, 2**128 - 1], the uint range.

A schedule also bounds the work of every run. MiniSol has no loops, so
only gas limits how many call frames a run makes. Every call costs its
caller `call_base`, and the stipend a value transfer grants comes out of
the surcharge the caller pays, so no call mints gas. A run's frames are
then at most 1 + block_gas_limit // call_base, which a schedule may not
set above MAX_FRAMES.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..inputs import InputError, read_text
from ..minisol.ast import UINT_MAX

MAX_FRAMES = 2**16  # the most frames one run may make besides its top frame


@dataclass(frozen=True)
class GasSchedule:
    base_tx: int = 21_000
    dispatch: int = 100
    arith: int = 3
    compare: int = 3
    logic: int = 3
    sload: int = 200
    sstore_set: int = 20_000    # storage slot changed from zero to non-zero
    sstore_reset: int = 5_000   # any other storage write
    call_base: int = 700
    value_transfer_surcharge: int = 9_000
    stipend: int = 2_300        # gas granted to the callee of a value transfer
    emit: int = 375
    require: int = 10
    revert: int = 0
    balance_of: int = 20
    gasleft: int = 2
    block_gas_limit: int = 30_000_000

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            # gasleft() reads gas as a uint, so no amount of gas exceeds one
            if not isinstance(v, int) or not 0 <= v <= UINT_MAX:
                raise ValueError(f"gas schedule entry {f.name} must be an integer "
                                 "in [0, 2**128 - 1]")
        if self.sstore_set <= self.sstore_reset:
            raise ValueError("sstore_set must exceed sstore_reset")
        if self.call_base == 0:
            raise ValueError("call_base must be positive: free calls leave a run's "
                             "call frames unbounded")
        if self.stipend > self.value_transfer_surcharge:
            raise ValueError("stipend must not exceed value_transfer_surcharge: the "
                             "excess would mint gas on every value transfer")
        if self.block_gas_limit // self.call_base > MAX_FRAMES:
            raise ValueError(f"block_gas_limit // call_base, the most calls one run "
                             f"can make, must not exceed {MAX_FRAMES}")


def load_schedule(path: str) -> GasSchedule:
    """Parse a key=value schedule file. Blank lines and #-comments skipped."""
    known = {f.name for f in fields(GasSchedule)}
    overrides: dict[str, int] = {}
    # not splitlines(): it also breaks at \x0c, \x85, \u2028 and more, renumbering lines
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise InputError(f"{path}:{lineno}: unknown schedule key {key!r}")
        try:
            overrides[key] = int(value.strip().replace("_", ""))
        except ValueError:
            raise InputError(f"{path}:{lineno}: {key} needs an integer value")
    try:
        return GasSchedule(**overrides)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
