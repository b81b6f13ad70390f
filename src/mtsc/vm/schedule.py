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

from ..inputs import InputError, read_text
from ..minisol.ast import UINT_MAX
from ..minisol.record import FrozenRecord

MAX_FRAMES = 2**16  # the most frames one run may make besides its top frame


class GasSchedule(FrozenRecord):
    __slots__ = _fields = (
        "base_tx", "dispatch", "arith", "compare", "logic", "sload", "sstore_set",
        "sstore_reset", "call_base", "value_transfer_surcharge", "stipend", "emit",
        "require", "revert", "balance_of", "gasleft", "block_gas_limit")

    def __init__(self, base_tx=21_000, dispatch=100, arith=3, compare=3, logic=3, sload=200,
                 sstore_set=20_000,    # storage slot changed from zero to non-zero
                 sstore_reset=5_000,   # any other storage write
                 call_base=700, value_transfer_surcharge=9_000,
                 stipend=2_300,        # gas granted to the callee of a value transfer
                 emit=375, require=10, revert=0, balance_of=20, gasleft=2,
                 block_gas_limit=30_000_000):
        self._set(locals())
        for name in self._fields:
            v = getattr(self, name)
            # gasleft() reads gas as a uint, so no amount of gas exceeds one
            if not isinstance(v, int) or not 0 <= v <= UINT_MAX:
                raise ValueError(f"gas schedule entry {name} must be an integer "
                                 "in [0, 2**128 - 1]")
        if sstore_set <= sstore_reset:
            raise ValueError("sstore_set must exceed sstore_reset")
        if call_base == 0:
            raise ValueError("call_base must be positive: free calls leave a run's "
                             "call frames unbounded")
        if stipend > value_transfer_surcharge:
            raise ValueError("stipend must not exceed value_transfer_surcharge: the "
                             "excess would mint gas on every value transfer")
        if block_gas_limit // call_base > MAX_FRAMES:
            raise ValueError(f"block_gas_limit // call_base, the most calls one run "
                             f"can make, must not exceed {MAX_FRAMES}")


def load_schedule(path: str) -> GasSchedule:
    """Parse a key=value schedule file. Blank lines and #-comments skipped."""
    known = GasSchedule._fields
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
