"""Network substrate: packets, ports, devices, topologies."""
