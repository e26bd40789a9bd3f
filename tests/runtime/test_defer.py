"""``SubscriberQueue.defer`` and dependency parking.

``nack`` returns a message to the *front* of the queue — right for
apply errors and for released parked messages. ``defer`` returns it to
the *back*; only the §4.4 generation gate uses it now. A message whose
dependencies are unmet parks in the version store's readiness index
(still an unacked delivery) until a counter bump meets them: these
tests pin that every counter-raising path releases it, that a bump
racing the registration is not lost, and that give-up is by age.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.broker.message import Message
from repro.broker.queue import SubscriberQueue
from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.core.subscriber import Dispatcher
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.runtime.flow import FlowConfig
from repro.runtime.workers import SubscriberWorkerPool


def make_message(seq):
    return Message(
        app="pub", operations=[], dependencies={}, published_at=0.0,
        uid=f"pub:{seq}",
    )


class TestQueueDefer:
    def test_defer_returns_message_to_the_back(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        queue.publish(make_message(2))
        first = queue.pop(timeout=0)
        assert first.uid == "pub:1"
        queue.defer(first)
        assert queue.pop(timeout=0).uid == "pub:2"
        assert queue.pop(timeout=0).uid == "pub:1"

    def test_nack_still_returns_message_to_the_front(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        queue.publish(make_message(2))
        first = queue.pop(timeout=0)
        queue.nack(first)
        assert queue.pop(timeout=0).uid == "pub:1"

    def test_defer_clears_the_unacked_slot(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        message = queue.pop(timeout=0)
        assert queue.unacked_count == 1
        queue.defer(message)
        assert queue.unacked_count == 0
        assert len(queue) == 1

    def test_defer_of_unknown_delivery_is_tolerated(self):
        queue = SubscriberQueue("sub")
        queue.publish(make_message(1))
        message = queue.pop(timeout=0)
        queue.ack(message)
        queue.defer(message)  # stale defer after an ack: no-op
        assert len(queue) == 0
        assert queue.unacked_count == 0

    def test_defer_on_decommissioned_queue_is_tolerated(self):
        queue = SubscriberQueue("sub", max_size=2)
        queue.publish(make_message(1))
        message = queue.pop(timeout=0)
        for seq in range(2, 6):
            queue.publish(make_message(seq))  # past the kill cliff
        assert queue.decommissioned
        queue.defer(message)  # must not raise, must not resurrect


def chain_ecosystem(**flow_kwargs):
    eco = Ecosystem()
    if flow_kwargs:
        eco.enable_flow(FlowConfig(**flow_kwargs))
    pub = eco.service(
        "pub", database=MongoLike("pub-db"), delivery_mode="causal"
    )

    @pub.model(publish=["name", "score"], name="Doc")
    class Doc(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(
        subscribe={"from": "pub", "fields": ["name", "score"], "mode": "causal"},
        name="Doc",
    )
    class SubDoc(Model):
        name = Field(str)
        score = Field(int, default=0)

    return eco, pub, sub, Doc, SubDoc


def reversed_chain(pub, sub, Doc, depth=40, chains=1):
    """``chains`` causal chains ``depth`` deep (one controller session
    each) queued head-last: every message's predecessor sits behind it."""
    docs = []
    for c in range(chains):
        with pub.controller():
            docs += [Doc.create(name=f"c{c}-{i}", score=i) for i in range(depth)]
    queue = sub.subscriber.queue
    popped = [queue.pop() for _ in range(len(docs))]
    for message in popped:  # each nack goes to the front: reversed
        queue.nack(message)
    assert queue.peek_all()[-1] is popped[0]
    return docs


def orphan_update(eco, pub, Doc):
    """A causal update whose create was lost (§6.5): it can only apply
    once something else raises the object's counter."""
    eco.broker.drop_next(1)
    with pub.controller():
        doc = Doc.create(name="d", score=0)
    with pub.controller():
        doc.score = 1
        doc.save()
    return doc


def park_one(sub):
    step = Dispatcher(sub.subscriber).step()
    assert step.parked == 1
    [message] = step.popped
    store = sub.subscriber_version_store
    assert store.parked() == [message]
    assert sub.subscriber.queue.unacked_count == 1  # still in flight
    return message


class TestReversedChain:
    @pytest.mark.parametrize("flow", [
        pytest.param({}, id="per-message"),
        pytest.param({"batch_apply": True, "batch_max": 8}, id="batched"),
    ])
    def test_reversed_chain_drains_without_waiting(self, flow):
        """Each parked message is released by the very bump that
        satisfies it, so drain time follows the work, not a timeout."""
        eco, pub, sub, Doc, SubDoc = chain_ecosystem(**flow)
        docs = reversed_chain(pub, sub, Doc)
        pool = SubscriberWorkerPool(sub, workers=3)
        assert (pool._flow is not None) == bool(flow)
        start = time.monotonic()
        with pool:
            assert pool.wait_until_idle(timeout=20)
        elapsed = time.monotonic() - start
        assert pool.deadlocked_messages == 0
        assert elapsed < 2.0, f"reversed chain took {elapsed:.2f}s"
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id)["score"] == doc.score
        assert sub.subscriber_version_store.parked() == []

    def test_sync_drain_resolves_the_reversed_chain(self):
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        docs = reversed_chain(pub, sub, Doc)
        assert sub.subscriber.drain() == len(docs)
        assert len(sub.subscriber.queue) == 0


class TestParkingStress:
    def test_many_workers_lose_no_wakeup(self):
        """More workers than cores and a tiny switch interval race parks
        against bumps; a lost wakeup leaves a message parked past the
        idle timeout (the give-up age is far beyond it)."""
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        docs = reversed_chain(pub, sub, Doc, depth=30, chains=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = SubscriberWorkerPool(sub, workers=6, give_up_age=600.0)
            with pool:
                assert pool.wait_until_idle(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert pool.deadlocked_messages == 0
        assert sub.subscriber.processed_messages == len(docs)
        assert sub.subscriber_version_store.parked() == []
        for doc in docs:
            assert SubDoc.__mapper__.find(doc.id)["score"] == doc.score


class TestReleasePaths:
    def test_apply_counts_releases_a_parked_message(self):
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        reversed_chain(pub, sub, Doc, depth=2)
        queue = sub.subscriber.queue
        dependent = park_one(sub)
        step = Dispatcher(sub.subscriber).step()  # applies the head
        assert step.applied == 1
        # The head's bump released the dependent to the queue front.
        assert sub.subscriber_version_store.parked() == []
        assert queue.peek_all() == [dependent]
        assert Dispatcher(sub.subscriber).step().applied == 1

    def test_repair_fast_forward_releases_a_parked_message(self):
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        orphan_update(eco, pub, Doc)
        parked = park_one(sub)
        # Targeted repair re-publishes the object; its fast-forward
        # meets the parked update's version, so the same drain applies
        # it (unreleased, drain would hand it back to the queue).
        result = sub.repair_replication(report=sub.audit_replication())
        assert result.verified_in_sync
        assert sub.subscriber._already_applied(parked.uid)
        assert len(sub.subscriber.queue) == 0
        assert sub.subscriber.queue.unacked_count == 0

    def test_bootstrap_bulk_load_releases_a_parked_message(self):
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        doc = orphan_update(eco, pub, Doc)
        parked = park_one(sub)
        bootstrap_subscriber(sub)
        assert sub.subscriber._already_applied(parked.uid)
        assert sub.subscriber_version_store.parked() == []
        assert len(sub.subscriber.queue) == 0
        assert SubDoc.__mapper__.find(doc.id)["score"] == 1

    def test_bump_between_check_and_registration_is_not_lost(self):
        """Force the race: the counter bump lands after the failed
        dependency check but before the park registers. The bumper sees
        nothing parked, so only the re-check under the index lock can
        notice — without it the message would park forever."""
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        doc = orphan_update(eco, pub, Doc)
        store = sub.subscriber_version_store
        real_ops = store.ops
        raced = []

        def racing_ops(dep):
            value = real_ops(dep)
            if not raced and store._index_lock.locked():
                raced.append(dep)
                store.apply_counts({dep: 1})  # the concurrent bump
            return value

        store.ops = racing_ops
        step = Dispatcher(sub.subscriber).step()
        del store.ops
        assert raced
        assert step.parked == 0
        assert store.parked() == []
        # Back at the queue front, and applicable now.
        assert len(sub.subscriber.queue) == 1
        assert Dispatcher(sub.subscriber).step().applied == 1
        assert SubDoc.__mapper__.find(doc.id)["score"] == 1


class TestGiveUpByAge:
    @pytest.mark.parametrize("action", ["drop", "apply"])
    def test_parked_message_gives_up_at_its_age(self, action):
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        doc = orphan_update(eco, pub, Doc)
        pool = SubscriberWorkerPool(
            sub, workers=2, give_up_age=0.2, give_up_action=action
        )
        start = time.monotonic()
        with pool:
            assert pool.wait_until_idle(timeout=10)
        assert time.monotonic() - start >= 0.2
        assert pool.deadlocked_messages == 1
        assert sub.subscriber_version_store.parked() == []
        row = SubDoc.__mapper__.find(doc.id)
        if action == "apply":
            assert row["score"] == 1  # weak-applied despite the gap
        else:
            assert row is None  # dropped: the lost create stays lost

    def test_age_is_measured_on_the_callers_clock(self):
        eco, pub, sub, Doc, SubDoc = chain_ecosystem()
        orphan_update(eco, pub, Doc)
        now = [0]
        gave_up = []

        def give_up(message):
            gave_up.append(message)
            sub.subscriber.queue.ack(message)

        dispatcher = Dispatcher(
            sub.subscriber, clock=lambda: now[0], give_up_age=10,
            give_up=give_up,
        )
        assert dispatcher.step().parked == 1
        now[0] = 9
        dispatcher.step()
        assert not gave_up
        now[0] = 10
        dispatcher.step()
        assert len(gave_up) == 1 and gave_up[0].delivery_count == 1
        assert sub.subscriber.queue.unacked_count == 0
