"""Flush-hook registration semantics: every hook runs, owners held weakly."""

import gc

from repro.cluster.network import SimulatedNetwork
from repro.telemetry import Telemetry


class Component:
    """Stand-in for an instrumented component with a flush hook."""

    def __init__(self):
        self.flushes = 0

    def export(self):
        self.flushes += 1


class TestFlushHooks:
    def test_distinct_owners_each_run(self):
        hub = Telemetry()
        first, second = Component(), Component()
        hub.on_flush(first.export)
        hub.on_flush(second.export)
        hub.flush()
        assert (first.flushes, second.flushes) == (1, 1)

    def test_dead_owner_hook_is_dropped(self):
        hub = Telemetry()
        component = Component()
        hub.on_flush(component.export)
        del component
        gc.collect()
        hub.flush()  # must not resurrect or call the dead component
        assert not hub._flush_hooks

    def test_a_network_registers_one_hook_and_the_hub_does_not_keep_it(self):
        """A network binds its export hook once, in its constructor, and
        the hub holds the network only weakly."""
        hub = Telemetry()
        network = SimulatedNetwork(2, telemetry=hub)
        assert len(hub._flush_hooks) == 1
        network.remote_hop(0, 1, size=64)
        hub.flush()
        assert hub.registry.value("network_link_messages", src=0, dst=1) == 1
        del network
        gc.collect()
        hub.flush()
        assert not hub._flush_hooks
