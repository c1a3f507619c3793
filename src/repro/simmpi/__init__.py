"""Simulated MPI on the discrete-event engine.

Two interchangeable backends expose the same per-rank API
(:class:`~repro.simmpi.api.RankComm`), so the implementations in
:mod:`repro.core` are written once and run on either:

* :mod:`~repro.simmpi.world` — the *full* backend: every rank is a DES
  process; messages match like real MPI (source, destination, tag) and move
  real NumPy payloads in functional mode. Used for correctness tests and to
  cross-validate the mirror backend.
* :mod:`~repro.simmpi.mirror` — the *mirror* backend: one representative
  worst-case rank simulated against symmetric neighbor images. Because the
  computation is bulk-synchronous and homogeneous (subdomains differ by at
  most one point), the representative rank's per-step critical path equals
  the ensemble per-step time; this is what makes 49 152-core simulations
  tractable.

A backend implements three batch calls (``irecv_all``/``isend_all``/
``waitall``); ``isend``/``irecv``/``wait`` are batches of one. Both
backends time a send from one model, :mod:`~repro.simmpi.message`: its
placement and protocol, start-up latency, background fraction and
receive-side copy are priced once per ``(NIC share, nbytes)``, and
perturbation is applied by the same helpers.

Progress model (the paper's central MPI subtlety, refs [1], [2] therein):
a rendezvous transfer starts when both endpoints have posted; a fraction
``overlap_fraction`` of the wire work proceeds in the background (RDMA),
while the rest completes only inside a blocking ``wait`` — so programs that
compute between post and wait hide only part of the wire time, and
bulk-synchronous programs lose nothing. Eager (small) messages transfer
immediately and pay a copy on the receive side.
"""

from repro.simmpi.api import HALO_TAGS, RankComm, Request, halo_tag
from repro.simmpi.mirror import MirrorComm, MirrorProfile
from repro.simmpi.world import World

__all__ = [
    "HALO_TAGS",
    "MirrorComm",
    "MirrorProfile",
    "RankComm",
    "Request",
    "World",
    "halo_tag",
]
