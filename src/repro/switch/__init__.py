"""Switch data plane: buffers, ECN, load balancers, forwarding pipeline."""
