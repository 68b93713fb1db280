"""Switch data plane: buffers, ECN, load balancers, forwarding pipeline."""

from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import (AdaptiveRoutingLB, EcmpLB, FlowletLB,
                             LoadBalancer, RandomSprayLB, ecmp_hash,
                             ecmp_index, rotl16, rotr16)
from repro.switch.pfc import PfcConfig, PfcController
from repro.switch.switch import Middleware, Switch

__all__ = [
    "Switch", "Middleware", "SharedBuffer", "EcnConfig", "EcnMarker",
    "LoadBalancer", "EcmpLB", "RandomSprayLB", "AdaptiveRoutingLB",
    "FlowletLB", "PfcConfig", "PfcController",
    "ecmp_hash", "ecmp_index", "rotl16", "rotr16",
]
