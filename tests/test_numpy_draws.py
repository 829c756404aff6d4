"""Fingerprints of the numpy draws that every output of the package rests on.

Each stream is a Generator on PCG64, seeded by a SeedSequence whose spawn
key is the stream path, and the package draws from it only through
Generator.random, .standard_normal and .integers (as uint16 in the
bootstrap, as int64 in the resample study and the verifier).  NumPy's RNG
policy (NEP 19) does not promise that a Generator method keeps its stream
across feature releases; if one moves, every pinned table digest moves at
once.  This test hashes a few hundred draws of each piece from fixed seeds,
so that the failing case names the piece whose draws changed.  The digests
were recorded at numpy 2.4.6.
"""

import hashlib

import numpy as np
import pytest

_KEY = (1, 7, 0, 2, 3498571, 12)  # a spawn key shaped like a stream path's words


def _seq():
    return np.random.SeedSequence(2026, spawn_key=_KEY)


def _calls(*calls):
    """The draws of calls, made in order on one generator, as one vector."""
    gen = np.random.Generator(np.random.PCG64(_seq()))
    return np.concatenate([np.ravel(call(gen)) for call in calls])


# Calls of odd length in sequence, so that the 32-bit halves the bit
# generator buffers between calls of a bounded integers() are covered too.
PIECES = {
    "SeedSequence": lambda: _seq().generate_state(256),
    "PCG64": lambda: np.random.PCG64(_seq()).random_raw(256),
    "Generator.random": lambda: _calls(lambda g: g.random(300)),
    "Generator.standard_normal": lambda: _calls(lambda g: g.standard_normal(300)),
    "Generator.integers-uint16": lambda: _calls(
        lambda g: g.integers(0, 250, size=151, dtype=np.uint16),
        lambda g: g.integers(0, 250, size=(3, 50), dtype=np.uint16)),
    "Generator.integers-int64": lambda: _calls(
        lambda g: g.integers(0, 100, size=151),
        lambda g: g.integers(0, 70000, size=151, dtype=np.int64),
        *[lambda g: g.integers(2, 9)] * 5),
}

DIGESTS = {
    "SeedSequence": "a393179d51331ff3320627d8ba5bc87b829f29cdf458c3eadec038d7a528c937",
    "PCG64": "cbd7dc26c8a67deff55a469ed5646abd760bb57944293e0d3dfcf04fd81f2f1e",
    "Generator.random": "f5235ba0948356955f40a121b65503c39b9ee41b6faef94aa1df934ee94adae7",
    "Generator.standard_normal": "718d0ab4e1cc8b34f2662714ca4110dde5f12ed517a8562dd9d509bf2584d12f",
    "Generator.integers-uint16": "6fa020841bc399784892ae596749e37e8473a5c98cd67f56b1c506e51fda2e92",
    "Generator.integers-int64": "e85c114641dd4d53154ed3fa1ecafa416d1728aa69ce2d46b77d64292932922c",
}


@pytest.mark.parametrize("piece", list(PIECES))
def test_numpy_draws_match_their_fingerprint(piece):
    draws = np.asarray(PIECES[piece]())
    data = draws.astype(draws.dtype.newbyteorder("<")).tobytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == DIGESTS[piece], (
        f"numpy {np.__version__} draws {piece} differently from numpy 2.4.6, where the "
        f"package's pinned outputs were recorded (digest {digest})"
    )
