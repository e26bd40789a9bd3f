"""Threaded worker pools, the DES, metrics, and the workload drivers."""

import pytest

from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.runtime.metrics import Histogram, ThroughputMeter
from repro.runtime.simulation import (
    DBCeiling,
    SimMessage,
    capture_messages,
    simulate_pipeline,
    simulate_subscriber,
)
from repro.runtime.workers import SubscriberWorkerPool
from repro.workloads import CrowdtapApp, SocialWorkload, build_social_publisher


class TestHistogram:
    def test_mean_and_percentiles(self):
        h = Histogram()
        h.extend([1.0, 2.0, 3.0, 4.0])
        assert h.mean() == 2.5
        assert h.percentile(50) == 2.0
        assert h.percentile(99) == 4.0
        assert h.count == 4
        assert h.total() == 10.0

    def test_empty(self):
        h = Histogram()
        assert h.mean() == 0.0
        assert h.percentile(99) == 0.0

    def test_throughput_meter(self):
        from repro.clock import VirtualClock

        clock = VirtualClock()
        meter = ThroughputMeter(clock)
        meter.start()
        meter.mark(100)
        clock.advance(2.0)
        meter.stop()
        assert meter.per_second() == 50.0


class TestWorkerPool:
    def build(self, eco):
        pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["name"])
        class User(Model):
            name = Field(str)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(subscribe={"from": "pub", "fields": ["name"]})
        class User(Model):  # noqa: F811
            name = Field(str)

        return pub, pub.registry["User"], sub, sub.registry["User"]

    def test_parallel_workers_apply_everything(self):
        eco = Ecosystem()
        pub, User, sub, SubUser = self.build(eco)
        with SubscriberWorkerPool(sub, workers=4) as pool:
            for i in range(100):
                User.create(name=f"u{i}")
            assert pool.wait_until_idle(timeout=20)
        assert SubUser.count() == 100

    def test_causal_order_held_under_concurrency(self):
        eco = Ecosystem()
        pub, User, sub, SubUser = self.build(eco)
        user = User.create(name="v0")
        with SubscriberWorkerPool(sub, workers=8) as pool:
            for i in range(1, 30):
                user.update(name=f"v{i}")
            assert pool.wait_until_idle(timeout=20)
        assert SubUser.find(user.id).name == "v29"

    def test_deadlock_callback_fires_on_poison_message(self):
        eco = Ecosystem()
        pub, User, sub, SubUser = self.build(eco)
        user = User.create(name="v1")
        eco.broker.drop_next(1)
        user.update(name="v2")  # lost
        user.update(name="v3")  # now blocked forever
        hits = []
        pool = SubscriberWorkerPool(
            sub, workers=2, give_up_age=0.03, max_deliveries=3,
            on_deadlock=lambda svc: hits.append(svc.name),
        )
        with pool:
            pool.wait_until_idle(timeout=10)
        assert hits  # recovery hook invoked (§6.5)


class TestSimulator:
    def test_independent_messages_scale_linearly(self):
        messages = [SimMessage(seq=i) for i in range(100)]
        t1 = simulate_subscriber(messages, workers=1, service_time=0.1)
        t10 = simulate_subscriber(messages, workers=10, service_time=0.1)
        assert t1.throughput == pytest.approx(10.0, rel=0.05)
        assert t10.throughput == pytest.approx(100.0, rel=0.05)

    def test_chain_does_not_scale(self):
        """A fully serialised chain is insensitive to worker count."""
        messages = [
            SimMessage(seq=i, deps={"chain": i}) for i in range(50)
        ]
        t1 = simulate_subscriber(messages, workers=1, service_time=0.1)
        t10 = simulate_subscriber(messages, workers=10, service_time=0.1)
        assert t10.throughput == pytest.approx(t1.throughput, rel=0.05)

    def test_db_ceiling_caps_throughput(self):
        messages = [SimMessage(seq=i) for i in range(200)]
        result = simulate_subscriber(
            messages, workers=50, service_time=0.0,
            db=DBCeiling(capacity=5, op_time=0.1),
        )
        assert result.throughput == pytest.approx(50.0, rel=0.05)

    def test_unsatisfiable_deps_deadlock_cleanly(self):
        messages = [SimMessage(seq=1, deps={"ghost": 99})]
        result = simulate_subscriber(messages, workers=2, service_time=0.1)
        assert result.completed == 0

    def test_pipeline_bottlenecked_by_slowest_db(self):
        messages = [SimMessage(seq=i) for i in range(300)]
        result = simulate_pipeline(
            messages,
            workers=64,
            publish_time=0.0,
            subscribe_time=0.0,
            publisher_db=DBCeiling(capacity=12, op_time=0.001),   # 12k/s
            subscriber_db=DBCeiling(capacity=40, op_time=0.001),  # 40k/s
        )
        assert result.throughput <= 12000 * 1.05
        assert result.throughput >= 8000

    def test_sim_message_projection_weak_drops_deps(self):
        eco = Ecosystem()
        service, User, Post, Comment = build_social_publisher(eco)
        drain = capture_messages(eco, "social")
        workload = SocialWorkload(service, User, Post, Comment, users=5)
        workload.run(20)
        real = drain()
        assert len(real) == 25  # 5 users + 20 operations
        causal = [SimMessage.from_message(m, "causal") for m in real]
        weak = [SimMessage.from_message(m, "weak") for m in real]
        assert any(m.deps for m in causal)
        assert all(not m.deps for m in weak)


class TestWorkloads:
    def test_social_mix_ratio(self):
        eco = Ecosystem()
        service, User, Post, Comment = build_social_publisher(eco)
        workload = SocialWorkload(service, User, Post, Comment, users=10)
        workload.run(400)
        total = workload.posts_created + workload.comments_created
        assert total == 400
        assert 0.15 < workload.posts_created / total < 0.40

    def test_social_causal_replication_end_to_end(self):
        eco = Ecosystem()
        service, User, Post, PubComment = build_social_publisher(eco)
        sub = eco.service("sub", database=MongoLike("sub-db"))

        @sub.model(subscribe={"from": "social",
                              "fields": ["post_id", "author_id", "body"]},
                   name="Comment")
        class SubComment(Model):
            body = Field(str)
            post_id = Field(int)
            author_id = Field(int)

        workload = SocialWorkload(service, User, Post, PubComment, users=5)
        workload.run(100)
        sub.subscriber.drain()
        assert sub.registry["Comment"].count() == workload.comments_created

    def test_crowdtap_mix_profile(self):
        """The generated traffic reproduces the Fig 12(a) msgs/call
        profile per controller."""
        eco = Ecosystem()
        app = CrowdtapApp(eco, seed=3)
        before = app.service.publisher.messages_published
        for _ in range(300):
            app.run_request("awards/index")
        assert app.service.publisher.messages_published == before

        before = app.service.publisher.messages_published
        for _ in range(300):
            app.run_request("actions/update")
        per_call = (app.service.publisher.messages_published - before) / 300
        assert 3.0 < per_call < 4.0

    def test_crowdtap_sampler_follows_mix(self):
        eco = Ecosystem()
        app = CrowdtapApp(eco, seed=5)
        names = [app.sample_controller() for _ in range(4000)]
        share = names.count("awards/index") / len(names)
        assert 0.12 < share < 0.22
