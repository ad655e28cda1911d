"""Deterministic, spawnable random number streams.

A stream is identified by (seed, stream_id); equal identifiers always
reproduce the same draws and distinct stream_ids give statistically
independent streams of the same master seed.  stream_id may be an int or
a tuple of ints, which lets the harness key streams by grid coordinates.

A scalar Generator call costs several times a value popped from a
pre-drawn block, so the scalar draws of the sweeps go through the
buffered uniform(), normal(), exponential() and standard_gamma(): each
serves, in order, the values of one vectorized gen call of BLOCK
variates (standard_gamma one block per shape).  That covers the direct
coefficient scan and the truncated normal it calls, and the rejection
loops of the scale blocks: hull proposals, log_uniform, the mhn ratio
of uniforms and the hgamma proposal.  Draws stay exact; only which
generator output feeds which proposal changes.  gen.random(BLOCK) gives
the values of BLOCK gen.random() calls, so a stream that draws only
uniforms keeps its values; one that mixes them with other gen calls, as
every rs sweep does, moved once when the rejection loops took up the
buffers.  The Metropolis sweep (kernels.mh_update_scales) draws its
three step normals and three acceptance uniforms as one block each,
with one gen call per block.

A stream's uniforms, normals and exponentials lists, and the list per
shape in its gammas dict, hold what is left of each block, reversed, so
pop() serves it in order.  A hot loop may pop a non-empty list itself
and call the method only to refill it (kernels._scan_beta): the values
come in the same order either way.
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
        self.gammas = {}

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

    def standard_gamma(self, shape):
        """A draw of gen.standard_gamma(shape), from that shape's buffered
        block; each shape keeps its own."""
        buf = self.gammas.get(shape)
        if not buf:
            buf = self.gammas[shape] = self.gen.standard_gamma(
                shape, BLOCK)[::-1].tolist()
        return buf.pop()

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
    u = rng.uniform()
    while u <= 0.0:
        u = rng.uniform()
    return math.log(u)
