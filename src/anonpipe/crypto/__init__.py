"""Cryptographic building blocks: envelopes, groups, sharing, deterministic AEAD."""

import random

# The one unseeded randomness source: every draw reads os.urandom, so it
# keeps no state a forked worker could repeat.
OS_RNG = random.SystemRandom()
