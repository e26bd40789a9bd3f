"""The full §5.2 ecosystem under real threaded worker pools."""


from repro.apps import build_social_ecosystem
from repro.runtime.workers import SubscriberWorkerPool


class TestThreadedSocialEcosystem:
    def test_fig9a_flow_with_worker_pools(self):
        world = build_social_ecosystem()
        services = [
            world.mailer.service,
            world.analyzer.service,
            world.spree.service,
            world.discourse.service,
        ]
        pools = [SubscriberWorkerPool(s, workers=2).start()
                 for s in services]
        try:
            ada = world.diaspora.users_create("ada", "ada@x")
            bob = world.diaspora.users_create("bob", "bob@x")
            world.diaspora.friends_create(ada, bob)
            for i in range(10):
                world.diaspora.posts_create(
                    ada, f"coffee update number {i}: still love coffee"
                )
            for pool in pools:
                assert pool.wait_until_idle(timeout=30)
            # The analyzer's decoration messages may land after the first
            # idle check; settle the cascade.
            for pool in pools:
                assert pool.wait_until_idle(timeout=30)
        finally:
            for pool in pools:
                pool.stop()
        # Mailer: one email per post to ada's one friend, in post order
        # (causal: ada's session serialises her posts).
        assert len(world.mailer.outbox) == 10
        numbers = [
            int(m["body"].split("number ")[1].split(":")[0])
            for m in world.mailer.outbox
        ]
        assert numbers == list(range(10))
        # Analyzer decorated ada; Spree received the decoration.
        assert "coffee" in world.analyzer.User.find(ada.id).interests
        assert "coffee" in world.spree.User.find(ada.id).interests
