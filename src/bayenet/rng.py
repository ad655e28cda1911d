"""Deterministic, spawnable random number streams.

A stream is identified by (seed, stream_id); equal identifiers always
reproduce the same draws and distinct stream_ids give statistically
independent streams of the same master seed.  stream_id may be an int or
a tuple of ints, which lets the harness key streams by grid coordinates.

A scalar Generator call costs several times a value popped from a
pre-drawn block, so the O(p)-per-sweep scalar consumers (the direct
coefficient scan and the truncated normal it calls) draw through the
buffered uniform(), normal() and exponential(): each serves, in order,
the values of one vectorized gen call of BLOCK variates.  Draws stay
exact; only which generator output feeds which proposal changes.  The
Metropolis sweep (kernels.mh_update_scales) draws its three step normals
and three acceptance uniforms as one block each, with one gen call per
block.  The other O(1)-per-sweep sites (hull proposals, the envelope
loops' log_uniform, the mhn ratio of uniforms) still call gen per draw,
so their streams move only once, when the samplers behind them are
rewritten.

A stream's uniforms, normals and exponentials lists hold what is left
of each block, reversed, so pop() serves it in order.  A hot loop may
pop a non-empty list itself and call the method only to refill it
(kernels._scan_beta): the values come in the same order either way.
"""

import math

import numpy as np

# variates per vectorized draw of a buffered method
BLOCK = 64


class RngStream:
    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        if isinstance(stream_id, int):
            stream_id = (stream_id,)
        self.stream_id = tuple(int(k) for k in stream_id)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream_id)
        self.gen = np.random.Generator(np.random.PCG64(seq))
        self.uniforms, self.normals, self.exponentials = [], [], []

    def uniform(self):
        """A draw of gen.random(), from the buffered block."""
        return (self.uniforms or self._refill(self.uniforms,
                                              self.gen.random)).pop()

    def normal(self):
        """A draw of gen.standard_normal(), from the buffered block."""
        return (self.normals or self._refill(self.normals,
                                             self.gen.standard_normal)).pop()

    def exponential(self):
        """A draw of gen.standard_exponential(), from the buffered block."""
        return (self.exponentials or self._refill(
            self.exponentials, self.gen.standard_exponential)).pop()

    @staticmethod
    def _refill(buf, draw):
        # the block goes in reversed, so pop() serves it in order
        buf.extend(draw(BLOCK)[::-1].tolist())
        return buf

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
