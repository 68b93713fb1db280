"""Commodity RNIC model: QPs, reliable transports, pacing."""
