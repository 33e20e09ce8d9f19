"""Desk-scale simulator of decentralized class-incremental learning."""
