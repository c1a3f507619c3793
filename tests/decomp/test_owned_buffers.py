"""Send payloads own their memory.

A packed face or region is handed to ``isend`` as the message's payload,
and MPI semantics give the message that buffer from post to completion.
So a packed buffer must never alias the live field: the sender may write
the field again before the receiver reads the payload.
"""

import numpy as np
import pytest

from repro.decomp.halo import pack_face
from repro.decomp.halo26 import OFFSETS26, pack_region
from repro.stencil.grid import allocate_field
from repro.stencil.kernels import interior

SHAPE = (10, 11, 12)


def make_field():
    u = allocate_field(SHAPE)
    interior(u)[...] = np.random.default_rng(7).random(SHAPE)
    return u


FACES = [(dim, side) for dim in range(3) for side in (-1, 1)]
REGIONS = [(d,) for d in OFFSETS26]


@pytest.mark.parametrize("pack, args", [(pack_face, FACES), (pack_region, REGIONS)],
                         ids=["face", "region26"])
def test_packed_buffers_are_owned(pack, args):
    u = make_field()
    packed = [pack(u, *a) for a in args]
    want = [buf.copy() for buf in packed]
    for buf in packed:
        assert not np.shares_memory(buf, u)
        assert buf.flags.c_contiguous and buf.flags.owndata
    u[...] = -1.0
    for buf, expected in zip(packed, want):
        assert np.array_equal(buf, expected)
