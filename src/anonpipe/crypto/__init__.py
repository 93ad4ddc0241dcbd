"""Cryptographic building blocks: envelopes, groups, sharing, deterministic AEAD."""
