"""Drive one cable failure through the path production runs.

``repro faults``, ``repro trace --name`` and every campaign fail cables
through :class:`FaultInjector`; tests that only need "this cable is down
and routing has converged" use the same path via :func:`fail_link`.
"""

from repro.faults.injector import FaultInjector
from repro.sim.engine import US


def fail_link(net, link, *, heal_after_us=None):
    """Take cable ``link`` ("a:b") down at the current simulated time.

    Routing reconverges in the same instant (``converge_us: 0``) and the
    fabric is run up to it, so on return the failure has been applied
    and reconverged.  With ``heal_after_us`` a ``link_up`` is scheduled
    that much later; run the fabric past it to heal.
    """
    at_us = net.now_ns / US
    events = [{"at_us": at_us, "kind": "link_down", "link": link}]
    if heal_after_us is not None:
        events.append({"at_us": at_us + heal_after_us, "kind": "link_up",
                       "link": link})
    FaultInjector(net, {"name": "fail-link", "converge_us": 0,
                        "events": events}).install()
    net.run(until_ns=net.now_ns)
