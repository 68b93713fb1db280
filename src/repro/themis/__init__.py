"""Themis: the paper's contribution — PSN spraying + NACK filtering."""
