"""Tests for the serialized halo-exchange pack/unpack protocol."""

import numpy as np
import pytest

from repro.decomp.halo import (
    face_message_bytes,
    pack_face,
    unpack_face,
)
from repro.stencil.grid import allocate_field
from repro.stencil.kernels import fill_periodic_halo, interior


def make_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    u = allocate_field(shape)
    interior(u)[...] = rng.random(shape)
    return u


class TestPackUnpack:
    @pytest.mark.parametrize("dim", [0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_roundtrip_shapes(self, dim, side):
        u = make_field((4, 5, 6))
        buf = pack_face(u, dim, side)
        expected = [6, 7, 8]
        del expected[dim]
        assert buf.shape == tuple(expected)
        assert buf.flags["C_CONTIGUOUS"]

    def test_pack_reads_boundary_plane(self):
        u = make_field((4, 4, 4))
        assert np.array_equal(pack_face(u, 0, -1), u[1])
        assert np.array_equal(pack_face(u, 0, 1), u[-2])

    def test_unpack_writes_halo_plane(self):
        u = make_field((4, 4, 4))
        buf = np.full((6, 6), 9.0)
        unpack_face(u, 1, -1, buf)
        assert np.all(u[:, 0, :] == 9.0)
        unpack_face(u, 1, 1, buf * 2)
        assert np.all(u[:, -1, :] == 18.0)

    def test_bad_side(self):
        u = make_field((4, 4, 4))
        with pytest.raises(ValueError):
            pack_face(u, 0, 0)
        with pytest.raises(ValueError):
            unpack_face(u, 0, 0, np.zeros((6, 6)))

    def test_unpack_shape_mismatch(self):
        u = make_field((4, 4, 4))
        with pytest.raises(ValueError):
            unpack_face(u, 0, -1, np.zeros((5, 6)))

    def test_self_exchange_equals_periodic_fill(self):
        """Serialized pack/unpack against oneself == fill_periodic_halo."""
        u1 = make_field((5, 6, 7), seed=3)
        u2 = u1.copy()
        fill_periodic_halo(u1)
        for dim in range(3):
            lo = pack_face(u2, dim, -1)
            hi = pack_face(u2, dim, 1)
            # my -side boundary becomes my +side halo (periodic self).
            unpack_face(u2, dim, 1, lo)
            unpack_face(u2, dim, -1, hi)
        assert np.array_equal(u1, u2)


class TestMessageBytes:
    def test_includes_rims(self):
        assert face_message_bytes((4, 5, 6), 0) == 7 * 8 * 8
        assert face_message_bytes((4, 5, 6), 2) == 6 * 7 * 8

    def test_matches_pack(self):
        u = make_field((4, 5, 6))
        for dim in range(3):
            assert pack_face(u, dim, -1).nbytes == face_message_bytes((4, 5, 6), dim)
