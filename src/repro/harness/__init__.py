"""Experiment harness: network assembly, metrics, runners, reports."""
