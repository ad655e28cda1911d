"""The buffered scalar draws of RngStream.

uniform(), normal() and exponential() must serve exactly the variates of
vectorized gen calls of BLOCK values, in order, so a stream's draws stay
a function of its key alone: across pickling or copying a stream in the
middle of a block, and across interleaved use of the three.
"""

import pickle

import numpy as np
import pytest

from bayenet.rng import BLOCK, RngStream

METHODS = (("uniform", "random"), ("normal", "standard_normal"),
           ("exponential", "standard_exponential"))


@pytest.mark.parametrize("method,gen_method", METHODS,
                         ids=[m for m, _ in METHODS])
def test_buffered_draws_are_the_blocks_in_order(method, gen_method):
    rng = RngStream(17, (2, 5))
    ref = RngStream(17, (2, 5)).gen
    want = np.concatenate([getattr(ref, gen_method)(BLOCK)
                           for _ in range(3)])
    got = [getattr(rng, method)() for _ in range(len(want))]
    assert all(type(v) is float for v in got)
    assert np.array_equal(got, want)
    # the generator itself is exactly three blocks in
    assert rng.gen.bit_generator.state == ref.bit_generator.state


def test_pickled_stream_resumes_in_the_middle_of_a_block():
    rng = RngStream(8, 3)
    for _ in range(BLOCK + BLOCK // 3):
        rng.uniform()
    rng.normal()
    rng.exponential()
    copy = pickle.loads(pickle.dumps(rng))
    draws = ("uniform", "normal", "exponential", "uniform") * BLOCK
    want = [getattr(rng, name)() for name in draws]
    got = [getattr(copy, name)() for name in draws]
    assert got == want
    assert copy.gen.random() == rng.gen.random()


def test_identically_keyed_streams_interleave_identically():
    a, b = RngStream(21, (4, 1)), RngStream(21, (4, 1))
    order = np.random.default_rng(0).integers(0, 4, size=5 * BLOCK)

    def run(rng):
        calls = (rng.uniform, rng.normal, rng.exponential, rng.gen.random)
        return [calls[k]() for k in order]

    assert run(a) == run(b)
    assert run(a) != run(RngStream(21, (4, 2)))


def test_unused_buffers_draw_nothing():
    rng = RngStream(3, 0)
    rng.uniform()
    ref = RngStream(3, 0).gen
    ref.random(BLOCK)
    assert rng.gen.bit_generator.state == ref.bit_generator.state
    assert rng.gen.random() == ref.random()
