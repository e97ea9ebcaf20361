"""Cluster exchange machinery for unpunctured marked surfaces.

Triangulations and flips, quivers with potential, seed mutation,
exchange-graph enumeration with square/pentagon/hexagon relations,
integer homology of the relation 2-complex, a Garside braid oracle,
braid twist presentations, and bounded covering-graph quotients.
"""

from .braid import BraidWord, GarsideNF, conjugate, equal, is_identity, normal_form
from .cover import CoverBall, TwistFrame, base_frame, build_cover_ball, frame_at, transport_frame
from .exchange import ExchangeGraph, RelationKind, TruncationError, enumerate_graph, relation_closure_check
from .homology import face_census, homology_h1, invariant_factors
from .presentation import (
    GroupPresentation,
    local_twist_relation_report,
    presentation_from_qp,
    verify_sound,
)
from .seeds import Seed, mutate_matrix, mutate_seed
from .surface import (
    MarkedSurface,
    QuiverWithPotential,
    Triangulation,
    annulus,
    genus_one,
    polygon_fan,
)

__version__ = "0.1.0"
