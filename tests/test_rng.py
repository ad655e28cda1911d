"""The buffered scalar draws of RngStream.

uniform(), normal(), exponential() and standard_gamma() must serve
exactly the variates of vectorized gen calls of BLOCK values, in order,
so a stream's draws stay a function of its key alone: across pickling
or copying a stream in the middle of a block, and across interleaved
use of the four.
"""

import math
import pickle

import numpy as np
import pytest

from bayenet.rng import BLOCK, RngStream, log_uniform

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


def test_a_stream_of_uniforms_alone_is_the_generators_sequence():
    # gen.random(BLOCK) is BLOCK gen.random() calls, so a sampler that
    # draws only uniforms keeps its values through the buffer
    rng, ref = RngStream(5, (1, 2)), RngStream(5, (1, 2)).gen
    n = 3 * BLOCK + 5
    assert [rng.uniform() for _ in range(n)] == [ref.random()
                                                 for _ in range(n)]


def test_standard_gamma_serves_a_block_per_shape_in_order():
    rng, ref = RngStream(11, 4), RngStream(11, 4).gen
    got = {"u": [rng.uniform() for _ in range(3)]}
    got[0.5] = [rng.standard_gamma(0.5)]
    got[2.0] = [rng.standard_gamma(2.0)]
    # the shape-0.5 block runs out and refills; the others are untouched
    got[0.5] += [rng.standard_gamma(0.5) for _ in range(BLOCK)]
    got["u"] += [rng.uniform() for _ in range(BLOCK - 2)]
    got[2.0] += [rng.standard_gamma(2.0) for _ in range(2)]
    # the refills in the order they happened
    u1 = ref.random(BLOCK)
    g1 = ref.standard_gamma(0.5, BLOCK)
    h1 = ref.standard_gamma(2.0, BLOCK)
    g2 = ref.standard_gamma(0.5, BLOCK)
    u2 = ref.random(BLOCK)
    assert got["u"] == np.concatenate([u1, u2[:1]]).tolist()
    assert got[0.5] == np.concatenate([g1, g2[:1]]).tolist()
    assert got[2.0] == h1[:3].tolist()
    assert all(type(v) is float for v in got[0.5])
    assert rng.gen.bit_generator.state == ref.bit_generator.state
    assert rng.normals == rng.exponentials == []
    # a pickled copy resumes each shape's block where the stream left it
    copy = pickle.loads(pickle.dumps(rng))
    assert ([copy.standard_gamma(a) for a in (0.5, 2.0) * BLOCK]
            == [rng.standard_gamma(a) for a in (0.5, 2.0) * BLOCK])


def test_log_uniform_redraws_an_exact_zero():
    rng = RngStream(6, 0)
    # pop() serves the list from its end: 0.0, then 0.25
    rng.uniforms = [0.5, 0.25, 0.0]
    assert log_uniform(rng) == math.log(0.25)
    assert rng.uniforms == [0.5]
