"""WorkerFleet: threaded workers across a whole ecosystem."""

from repro.apps import build_social_ecosystem
from repro.runtime.workers import WorkerFleet


class TestWorkerFleet:
    def test_fleet_covers_only_subscribing_services(self):
        world = build_social_ecosystem()
        fleet = WorkerFleet(world.eco, workers=2)
        names = {pool.service.name for pool in fleet.pools}
        assert names == {"mailer", "analyzer", "spree"}

    def test_fleet_drives_decorator_cascade(self):
        world = build_social_ecosystem()
        with WorkerFleet(world.eco, workers=2) as fleet:
            ada = world.diaspora.users_create("ada", "a@x")
            world.diaspora.posts_create(
                ada, "coffee coffee coffee, nothing but coffee"
            )
            assert fleet.wait_until_idle(timeout=30)
        assert "coffee" in world.spree.User.find(ada.id).interests
