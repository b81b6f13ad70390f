"""World state: accounts, balances, contract storage, and snapshots.

A WorldState is single-owner; one execution runs against it at a time.
The fee ledger accumulates gas charges separately from account balances,
so balance deltas compare cleanly across externally-owned and contract
actors.

Rollback journal
----------------
Every write goes through the state, which first appends an undo entry
`(target, key, old value)` to its journal: balance changes, storage
writes, and account creation. A storage key or account that did not
exist is recorded as absent, so undoing the write deletes it rather than
writing a default. Rolling back to a checkpoint pops entries down to a
recorded journal length, in the style of go-ethereum's StateDB journal:
a call frame costs O(its writes), not O(accounts x storage), and every
Account object stays in place, so a reference held across a rollback
sees the rewound values.

Snapshots are the public face of that one mechanism: a snapshot records
the journal length together with the fee ledger and the address counter,
so a deploy after a restore reassigns the same address. The interpreter
takes its own checkpoints at each call boundary and transaction. While
no snapshot is open nothing can rewind past a finished transaction, so
`commit` drops the journal and setup replay does not accumulate entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..minisol import ast
from ..minisol.ast import ZERO_ADDR  # re-exported for the VM

_ABSENT = object()  # journal marker: the key did not exist before the write


class UnknownSnapshot(Exception):
    pass


@dataclass
class Account:
    address: str
    balance: int
    code: Optional[ast.ContractDef] = None  # None for an EOA
    # scalar vars keyed by name, map entries keyed by (name, addr)
    storage: dict = field(default_factory=dict)

    def __deepcopy__(self, memo):
        # flat: storage holds immutables and code never mutates after deploy.
        # The program copies no accounts, but perfbench/layers.py patches
        # this method to count copies, and tests/support.clone relies on the
        # flat copy sharing `code`.
        return Account(self.address, self.balance, self.code, dict(self.storage))


def is_zero(value) -> bool:
    return value in (0, False, ZERO_ADDR)


@dataclass
class WorldState:
    accounts: dict = field(default_factory=dict)
    fee_ledger: int = 0
    next_address: int = 1
    _journal: list = field(default_factory=list, repr=False)
    _snapshots: list = field(default_factory=list, repr=False)
    _snapshot_seq: int = 0

    # -- accounts ----------------------------------------------------------

    def _create(self, account: Account) -> str:
        self._journal.append((self.accounts, account.address, _ABSENT))
        self.accounts[account.address] = account
        return account.address

    def _fresh_address(self) -> str:
        addr = f"0x{self.next_address:04x}"
        self.next_address += 1
        return addr

    def create_eoa(self, balance: int = 0) -> str:
        return self._create(Account(self._fresh_address(), balance))

    def account(self, addr: str) -> Account:
        return self.accounts[addr]

    def has_account(self, addr: str) -> bool:
        return addr in self.accounts

    def fund(self, addr: str, amount: int):
        """Scenario-setup value creation; the one sanctioned balance source."""
        acct = self.accounts[addr]
        self._journal.append((acct, "balance", acct.balance))
        acct.balance += amount

    def balance_of(self, addr: str) -> int:
        acct = self.accounts.get(addr)
        return acct.balance if acct else 0

    # -- journaled writes ---------------------------------------------------

    def transfer(self, sender: Account, recipient: Account, value: int):
        journal = self._journal
        journal.append((sender, "balance", sender.balance))
        journal.append((recipient, "balance", recipient.balance))
        sender.balance -= value
        recipient.balance += value

    def store(self, acct: Account, key, value):
        storage = acct.storage
        self._journal.append((storage, key, storage.get(key, _ABSENT)))
        storage[key] = value

    # -- checkpoints and snapshots -------------------------------------------

    def checkpoint(self) -> int:
        """Journal length to roll back to; checkpoints nest like frames."""
        return len(self._journal)

    def revert(self, checkpoint: int):
        """Undo every write made since `checkpoint`, newest first."""
        journal = self._journal
        while len(journal) > checkpoint:
            target, key, old = journal.pop()
            if type(target) is dict:
                if old is _ABSENT:
                    del target[key]
                else:
                    target[key] = old
            else:
                setattr(target, key, old)

    def commit(self):
        """End of a transaction: keep the journal only for open snapshots."""
        if not self._snapshots:
            self._journal.clear()

    def snapshot(self) -> int:
        self._snapshot_seq += 1
        sid = self._snapshot_seq
        self._snapshots.append((sid, len(self._journal), self.fee_ledger,
                                self.next_address))
        return sid

    def restore(self, snapshot_id: int):
        """Rewind to a snapshot. Consumes it and anything taken after it."""
        for i in range(len(self._snapshots) - 1, -1, -1):
            sid, checkpoint, fees, next_addr = self._snapshots[i]
            if sid == snapshot_id:
                self.revert(checkpoint)
                self.fee_ledger = fees
                self.next_address = next_addr
                del self._snapshots[i:]
                return
        raise UnknownSnapshot(f"snapshot {snapshot_id} not on the journal")


def deploy(state: WorldState, code: ast.ContractDef, initial_balance: int = 0) -> str:
    """Create a contract account for validated code at the next address."""
    return state._create(Account(state._fresh_address(), initial_balance, code))
