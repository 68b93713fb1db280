"""Congestion control (DCQCN and fixed-rate baseline)."""
