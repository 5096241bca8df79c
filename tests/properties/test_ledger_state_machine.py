"""Stateful property: the reservation ledger stays balanced.

One audio testbed's :class:`ApplicationSession`\\ s go through random
interleavings of start, stop, redistribute, device switch, and device
crash and rejoin. Every started session is wired for automatic
reconfiguration, so a crash moves (or fails) the sessions on the dead
device the way a live domain would. After every step:

- ``ledger.audit()`` finds nothing;
- every live allocation on an online device belongs to exactly one
  COMMITTED transaction;
- every COMMITTED transaction belongs to exactly one running session;
- no session is active twice: each running session holds its own
  committed transaction, and no two running sessions share a user.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.server.ledger import TransactionState

DEVICES = ("desktop1", "desktop2", "desktop3", "jornada")


class LedgerMachine(RuleBasedStateMachine):
    sessions = Bundle("sessions")

    def __init__(self) -> None:
        super().__init__()
        self.testbed = build_audio_testbed()
        self.configurator = self.testbed.configurator
        self.ledger = self.configurator.ledger
        self.registry = self.testbed.server.domain.registry
        # Service ads a crash withdrew, re-registered on rejoin.
        self.withdrawn = {}
        self.users = 0

    @rule(target=sessions, client=st.sampled_from(DEVICES))
    def start(self, client):
        self.users += 1
        session = self.configurator.create_session(
            audio_request(self.testbed, client), user_id=f"user{self.users}"
        )
        session.start(skip_downloads=True)
        if session.running:
            self.configurator.enable_auto_reconfiguration(session)
        return session

    @rule(session=consumes(sessions))
    def stop(self, session):
        session.stop()

    @rule(session=sessions)
    def redistribute(self, session):
        if session.running:
            session.redistribute()

    @rule(session=sessions, client=st.sampled_from(DEVICES))
    def switch_device(self, session, client):
        if session.running and client != session.client_device:
            device = self.testbed.devices[client]
            session.switch_device(
                client, device.device_class, skip_downloads=True
            )

    @rule(device_id=st.sampled_from(DEVICES))
    def crash(self, device_id):
        if device_id in self.withdrawn:
            return
        self.withdrawn[device_id] = [
            ad for ad in self.registry if ad.hosted_on == device_id
        ]
        self.testbed.server.crash(device_id)

    @rule(device_id=st.sampled_from(DEVICES))
    def rejoin(self, device_id):
        if device_id not in self.withdrawn:
            return
        self.testbed.devices[device_id].go_online()
        for ad in self.withdrawn.pop(device_id):
            self.registry.register(ad)

    @invariant()
    def audit_is_clean(self):
        assert self.ledger.audit() == []

    @invariant()
    def allocations_belong_to_one_committed_transaction(self):
        committed = [
            txn for txn in self.ledger._transactions.values()
            if txn.state is TransactionState.COMMITTED
        ]
        for device in self.testbed.devices.values():
            if not device.online:
                continue
            for allocation in device.active_allocations():
                owners = [
                    txn for txn in committed
                    if any(a is allocation for a in txn.allocations)
                ]
                assert len(owners) == 1, (device.device_id, allocation)

    @invariant()
    def committed_transactions_belong_to_one_running_session(self):
        running = [s for s in self.configurator.sessions.values() if s.running]
        for txn in self.ledger._transactions.values():
            if txn.state is not TransactionState.COMMITTED:
                continue
            holders = [
                s for s in running if s.deployment.ledger_txn is txn
            ]
            assert len(holders) == 1, txn

    @invariant()
    def no_session_is_active_twice(self):
        running = [s for s in self.configurator.sessions.values() if s.running]
        txns = [s.deployment.ledger_txn for s in running]
        assert all(t.state is TransactionState.COMMITTED for t in txns)
        assert all(self.ledger._transactions.get(t.txn_id) is t for t in txns)
        assert len({id(t) for t in txns}) == len(txns)
        assert len({s.user_id for s in running}) == len(running)


LedgerMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestLedgerStateMachine = LedgerMachine.TestCase
