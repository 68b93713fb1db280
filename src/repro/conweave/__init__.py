"""ConWeave-style baseline: flow rerouting + in-network reordering."""
