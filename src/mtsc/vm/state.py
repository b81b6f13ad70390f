"""World state: accounts, balances, contract storage, and snapshots.

A WorldState is single-owner; one execution runs against it at a time.
Balances move only by value transfer and setup funding: gas is charged
against the transaction's limit and reported in its outcome, never taken
from an account.

Rollback journal
----------------
Every write goes through the state, which first appends an undo entry
`(target, key, old value)` to its journal: balance changes, storage
writes, and, while a snapshot is open, account creation together with
the address counter (no transaction creates accounts, so nothing else
rewinds past one). A storage key or account that did not exist is
recorded as absent, so undoing the write deletes it. Rolling back to a
checkpoint pops entries down to a recorded journal length, in the style
of go-ethereum's StateDB journal: a call frame costs O(its writes), not
O(accounts x storage), and every Account object stays in place, so a
reference held across a rollback sees the rewound values.

A snapshot is the public face of that one mechanism, and at most one is
open at a time: it is a journal length, and `restore` reverts to it and
closes it, so a deploy after a restore reassigns the same address. The
interpreter takes its own checkpoints at each call boundary and
transaction. While no snapshot is open nothing can rewind past a
finished transaction, so `commit` drops the journal and setup replay
does not accumulate entries.
"""

from __future__ import annotations

from typing import Optional

from ..minisol import ast
from ..minisol.ast import ZERO_ADDR  # re-exported for the VM
from ..minisol.record import Record

_ABSENT = object()  # journal marker: the key did not exist before the write


class Account(Record):
    __slots__ = _fields = ("address", "balance", "code", "storage")

    def __init__(self, address: str, balance: int,
                 code: Optional[ast.ContractDef] = None, storage: dict = None):
        self.address = address
        self.balance = balance
        self.code = code  # None for an EOA
        # scalar vars keyed by name, map entries keyed by (name, addr)
        self.storage = {} if storage is None else storage

    def __deepcopy__(self, memo):
        # flat: storage holds immutables and code never mutates after deploy.
        # The program copies no accounts, but perfbench/layers.py patches
        # this method to count copies, and tests/support.clone relies on the
        # flat copy sharing `code`.
        return Account(self.address, self.balance, self.code, dict(self.storage))


ZEROS = (0, False, ZERO_ADDR)  # the values a storage write counts as zero


class WorldState(Record):
    __slots__ = _fields = ("accounts", "next_address", "_journal", "_snapshot")

    def __init__(self, accounts: dict = None, next_address: int = 1):
        self.accounts = {} if accounts is None else accounts
        self.next_address = next_address
        self._journal = []
        self._snapshot = None  # the open snapshot's journal length

    # -- accounts ----------------------------------------------------------

    def create_eoa(self, balance: int = 0) -> str:
        """A new account with no code at the next address; `deploy` adds code."""
        n = self.next_address
        addr = "0x%04x" % n  # %-formatting parses no format spec per call
        self.next_address = n + 1
        if self._snapshot is not None:
            self._journal += (self.accounts, addr, _ABSENT), (self, "next_address", n)
        self.accounts[addr] = Account(addr, balance)
        return addr

    def account(self, addr: str) -> Account:
        return self.accounts[addr]

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
        """End of a transaction: keep the journal only for an open snapshot."""
        if self._snapshot is None:
            self._journal.clear()

    def snapshot(self):
        """Open the snapshot that the next `restore` rewinds to."""
        self._snapshot = len(self._journal)

    def restore(self):
        """Rewind to the open snapshot and close it."""
        self.revert(self._snapshot)
        self._snapshot = None


def deploy(state: WorldState, code: ast.ContractDef, initial_balance: int = 0) -> str:
    """Create a contract account for validated code at the next address."""
    addr = state.create_eoa(initial_balance)
    state.accounts[addr].code = code
    return addr
