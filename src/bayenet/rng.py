"""Deterministic, spawnable random number streams.

A stream is identified by (seed, stream_id); equal identifiers always
reproduce the same draws and distinct stream_ids give statistically
independent streams of the same master seed.  stream_id may be an int or
a tuple of ints, which lets the harness key streams by grid coordinates.
"""

import math

import numpy as np


class RngStream:
    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        if isinstance(stream_id, int):
            stream_id = (stream_id,)
        self.stream_id = tuple(int(k) for k in stream_id)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream_id)
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def substream(self, *ids):
        """A sibling stream keyed by this stream's id extended with ids."""
        return RngStream(self.seed, self.stream_id + tuple(int(k) for k in ids))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def log_uniform(rng):
    """log U for U uniform on (0, 1); a draw of exactly 0 is redrawn."""
    u = rng.gen.random()
    while u <= 0.0:
        u = rng.gen.random()
    return math.log(u)
