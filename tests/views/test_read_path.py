"""The read path end to end: views maintained in the subscriber apply
path over real replication, cache invalidation riding the stream,
coalescing and group commit preserving the aggregates, restore
rebuilding them, and the INV_VIEW conformance variant."""

import tempfile

import pytest

from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model
from repro.runtime.conformance import (
    INV_VIEW,
    DeliveryChecker,
    ScheduleConfig,
    replay_twice,
    run_schedule,
)
from repro.runtime.flow import FlowConfig
from repro.views import CountView, FeedView, SumView, TopKView


def build_pipeline(mode="causal", flow=None, data_dir=None):
    eco = Ecosystem()
    if flow is not None:
        eco.enable_flow(flow)
    if data_dir is not None:
        eco.enable_durability(data_dir=data_dir, snapshot_every=10_000)
    pub = eco.service(
        "pub", database=MongoLike("pub-db"), delivery_mode=mode
    )

    @pub.model(publish=["author", "score"], name="Post")
    class Post(Model):
        author = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(
        subscribe={"from": "pub", "fields": ["author", "score"], "mode": mode},
        name="Post",
    )
    class SubPost(Model):
        author = Field(str)
        score = Field(int, default=0)

    views = sub.enable_views()
    views.declare(CountView("posts", "Post"))
    views.declare(SumView("karma", "Post", "score"))
    views.declare(TopKView("top", "Post", "score", k=3))
    views.declare(FeedView("feeds", "Post", "author"))
    return eco, pub, sub, Post


def assert_views_match_recompute(views):
    for spec in views.specs():
        assert views.canonical(spec.name) == views.recompute_canonical(
            spec.name
        ), f"view {spec.name!r} diverged from recomputation"


class TestApplyPathMaintenance:
    def test_creates_updates_deletes_replicate_into_views(self):
        eco, pub, sub, post_cls = build_pipeline()
        posts = []
        with pub.controller():
            for i in range(9):
                posts.append(
                    post_cls.create(author=f"a{i % 3}", score=i)
                )
        sub.subscriber.drain()
        views = sub.views
        assert views.peek("posts") == 9
        assert views.peek("karma") == sum(range(9))
        assert_views_match_recompute(views)

        with pub.controller():
            posts[0].score += 100
            posts[0].save()
            posts[1].destroy()
        sub.subscriber.drain()
        assert views.peek("posts") == 8
        assert views.peek("karma") == sum(range(9)) + 100 - 1
        assert views.read("posts") == 8  # cache-aside read agrees
        assert_views_match_recompute(views)

    def test_cached_read_never_stale_after_applied_write(self):
        eco, pub, sub, post_cls = build_pipeline()
        with pub.controller():
            post = post_cls.create(author="ada", score=1)
        sub.subscriber.drain()
        assert sub.views.read("karma") == 1
        assert sub.views.read("karma") == 1  # warm hit
        with pub.controller():
            post.score = 50
            post.save()
        sub.subscriber.drain()
        # The apply invalidated the view key: this read must miss and
        # see the post-write aggregate, never the cached 1.
        assert sub.views.read("karma") == 50
        assert eco.metrics.value("cache.sub.hits") >= 1

    def test_row_cache_write_through(self):
        eco, pub, sub, post_cls = build_pipeline()
        with pub.controller():
            post = post_cls.create(author="ada", score=3)
        sub.subscriber.drain()
        row = sub.views.read_row("Post", post.id)
        assert row["score"] == 3
        # The apply wrote the row through: the read above was a hit.
        assert eco.metrics.value("cache.sub.hits") >= 1
        with pub.controller():
            post.destroy()
        sub.subscriber.drain()
        assert sub.views.read_row("Post", post.id) is None


class TestCoalescingPreservesViews:
    def test_coalesced_update_storm_lands_exactly(self):
        eco, pub, sub, post_cls = build_pipeline(
            mode="weak", flow=FlowConfig(capacity=64)
        )
        with pub.controller():
            post = post_cls.create(author="ada", score=0)
            for i in range(1, 6):
                post.score = i * 10
                post.save()
        sub.subscriber.drain()
        assert eco.metrics.value("flow.sub.coalesced") >= 1
        # Row-state deltas: the merged message lands the final
        # attributes once, exactly like replaying every update.
        assert sub.views.peek("karma") == 50
        assert sub.views.peek("posts") == 1
        assert_views_match_recompute(sub.views)


class TestBatchedApplyFoldsOnce:
    def test_group_commit_folds_and_invalidates_once(self):
        eco, pub, sub, post_cls = build_pipeline(
            flow=FlowConfig(batch_max=8, throttle_delay=0.0)
        )
        with pub.controller():
            for i in range(4):
                post_cls.create(author="ada", score=i)
        queue = sub.subscriber.queue
        before = sub.views.cache.version("view:posts")
        batch = queue.pop_many(8, timeout=0.0)
        assert len(batch) == 4
        done, waiting, retry, errors = sub.subscriber.process_batch(batch)
        assert len(done) == 4 and not waiting and not retry and not errors
        for message in done:
            queue.ack(message)
        assert eco.metrics.value("views.sub.batch_flushes") == 1
        # One fold for the whole batch: each view key's watermark
        # advanced once, not once per message.
        assert sub.views.cache.version("view:posts") == before + 1
        assert sub.views.peek("posts") == 4
        assert_views_match_recompute(sub.views)


class TestRestoreRebuild:
    def test_kill_restart_rebuilds_views_from_rows(self):
        with tempfile.TemporaryDirectory() as data_dir:
            eco, pub, sub, post_cls = build_pipeline(data_dir=data_dir)
            with pub.controller():
                posts = [
                    post_cls.create(author=f"a{i % 2}", score=i)
                    for i in range(6)
                ]
            sub.subscriber.drain()
            with pub.controller():
                posts[0].destroy()
                posts[1].score = 99
                posts[1].save()
            sub.subscriber.drain()
            before = {
                spec.name: sub.views.canonical(spec.name)
                for spec in sub.views.specs()
            }
            eco.durability.wal.sync()

            eco2, pub2, sub2, _ = build_pipeline(data_dir=data_dir)
            report = eco2.durability.restore()
            assert not report.unrecoverable
            assert eco2.metrics.value("views.sub.rebuilds") == 1
            for name, value in before.items():
                assert sub2.views.canonical(name) == value
            assert_views_match_recompute(sub2.views)
            # The rebuilt cache starts cold but fresh.
            assert sub2.views.read("posts") == sub2.views.peek("posts")


class TestConformanceViews:
    def test_views_schedule_holds_invariants(self):
        result = run_schedule(
            ScheduleConfig(mode="causal", seed=7, views=True, flow=True)
        )
        assert result.ok, [str(v) for v in result.violations]
        assert result.stats["cache_hits"] + result.stats["cache_misses"] > 0

    def test_views_schedule_deterministic(self):
        config = ScheduleConfig(mode="weak", seed=3, views=True, flow=True)
        first, second = replay_twice(config)
        assert first.trace == second.trace

    def test_checker_flags_stale_cache_hit(self):
        _eco, _pub, sub, _post = build_pipeline()
        checker = DeliveryChecker(sub.subscriber)
        checker.on_event(
            1, "w0", "cache.invalidate", {"key": "view:karma", "version": 3}
        )
        checker.on_event(
            2, "r", "cache.read",
            {"key": "view:karma", "version": 2, "hit": True},
        )
        assert [v.invariant for v in checker.violations] == [INV_VIEW]
        # A hit at the frontier is fine.
        checker.on_event(
            3, "r", "cache.read",
            {"key": "view:karma", "version": 3, "hit": True},
        )
        assert len(checker.violations) == 1

    def test_checker_flags_aggregate_divergence_at_finalize(self):
        _eco, pub, sub, post_cls = build_pipeline()
        with pub.controller():
            post_cls.create(author="ada", score=1)
        sub.subscriber.drain()
        checker = DeliveryChecker(sub.subscriber)
        checker.views = sub.views
        assert checker.finalize() == []
        # Corrupt the incremental state: finalize must name INV_VIEW.
        sub.views._states["posts"]["count"] += 1
        violations = checker.finalize()
        assert any(v.invariant == INV_VIEW for v in violations)


class TestBatchAbortDropsBuffer:
    def test_abort_leaves_views_untouched(self):
        _eco, pub, sub, post_cls = build_pipeline()
        with pub.controller():
            post_cls.create(author="ada", score=5)
        sub.subscriber.drain()
        views = sub.views
        views.begin_batch()
        views.on_applied("Post", 999, None, {"id": 999, "score": 1000})
        views.abort_batch()
        assert views.peek("karma") == 5
        assert_views_match_recompute(views)

    def test_nested_batches_fold_on_outermost_commit(self):
        _eco, pub, sub, post_cls = build_pipeline()
        views = sub.views
        views.begin_batch()
        views.begin_batch()
        views.on_applied(
            "Post", 1, None, {"id": 1, "author": "ada", "score": 2}
        )
        views.commit_batch()
        assert views.peek("karma") == 0  # inner commit: still buffered
        views.commit_batch()
        assert views.peek("karma") == 2
