"""Network substrate: packets, ports, devices, topologies."""

from repro.net.packet import (CONTROL_PACKET_BYTES, DATA_HEADER_BYTES,
                              DEFAULT_MTU, FlowKey, Packet, PacketType,
                              ack_packet, cnp_packet, data_packet,
                              nack_packet)
from repro.net.node import Device
from repro.net.port import Port
from repro.net.topology import Topology, fat_tree, leaf_spine

__all__ = [
    "Packet", "PacketType", "FlowKey", "Device", "Port",
    "Topology", "leaf_spine", "fat_tree",
    "data_packet", "ack_packet", "nack_packet", "cnp_packet",
    "DATA_HEADER_BYTES", "CONTROL_PACKET_BYTES", "DEFAULT_MTU",
]
