"""Builtin named graphs.

The arc lists here are transcriptions of drawings, so each one is gated
by independent invariants (vertex/arc counts, degree profile, girth,
exact maximum average degree, potential) before being handed out; a gate
failure means a transcription bug, never a caller error.  Where a drawing
carries ambiguous vertex labels the transcription follows the arc
incidences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .density import mad_exact
from .errors import FixtureIntegrityError, UnknownFixtureError
from .graph import OrientedGraph, anti_twin, directed_cycle, girth, potential
from .hom import AT_C3, C3

FIXTURE_NAMES = ("c3", "at_c3", "c_minus4", "e1", "e2", "e3", "f", "m3p")

# exceptional pushably 3-critical graphs, by fixture name
EXCEPTION_NAMES = ("c_minus4", "e1", "e2", "e3")

_C_MINUS4_ARCS = ((0, 1), (1, 2), (2, 3), (0, 3))

_E1_ARCS = (
    (0, 4), (4, 5), (5, 6), (6, 2),      # chain v1 .. v3
    (7, 2), (8, 7), (9, 8), (1, 9),      # chain v2 .. v3
    (0, 10), (10, 11), (11, 12), (1, 12),  # chain v1 .. v2
    (3, 0), (2, 3), (3, 1),              # hub v4
)

_E2_ARCS = (
    (0, 4), (4, 2),                      # v1 - v3
    (2, 5), (5, 1),                      # v3 - v2
    (1, 6), (6, 0),                      # v2 - v1
    (0, 7), (7, 8), (8, 3),              # v1 - v4
    (1, 10), (10, 9), (9, 3),            # v2 - v4
    (2, 11), (11, 12), (12, 3),          # v3 - v4
)

_E3_ARCS = (
    (2, 4), (4, 0),                      # v3 - v1
    (2, 5), (5, 1),                      # v3 - v2
    (11, 0), (11, 6), (6, 12), (12, 1),  # v1 - v2
    (0, 7), (7, 8), (8, 3),              # v1 - v4
    (1, 10), (10, 9), (9, 3),            # v2 - v4
    (3, 2),                              # v4 - v3
)

_F_ARCS = (
    (2, 0), (2, 1),                      # top hub
    (3, 4), (4, 2),                      # v4 - v3
    (0, 6), (5, 6), (5, 7), (7, 1),      # bottom chain v1 - v2
    (0, 8), (8, 9), (9, 3),              # v1 - v4
    (1, 11), (11, 10), (10, 3),          # v2 - v4
)

# 8-vertex, 9-arc colorable witness: three internally disjoint paths of
# lengths 2, 3, 4 between vertices 0 and 2
_M3P_ARCS = (
    (0, 1), (2, 1),
    (0, 3), (3, 4), (4, 2),
    (0, 5), (5, 6), (6, 7), (2, 7),
)

# the drawn coloring of m3p: vertices pushed, then colors
M3P_PUSH_SET = frozenset({0, 5, 6, 7})
M3P_COLORING = (2, 1, 0, 1, 2, 0, 1, 2)


def _gate(name: str, condition: bool, detail: str):
    if not condition:
        raise FixtureIntegrityError(f"fixture {name!r} failed its gate: {detail}")


def _degree_profile(g: OrientedGraph) -> dict[int, int]:
    profile: dict[int, int] = {}
    for d in g.degrees:
        profile[d] = profile.get(d, 0) + 1
    return profile


def _gate_e(name: str, g: OrientedGraph):
    _gate(name, (g.vertex_count, g.arc_count) == (13, 15), "must have 13 vertices, 15 arcs")
    _gate(name, _degree_profile(g) == {2: 9, 3: 4}, "degree profile must be 2^9 3^4")
    _gate(name, girth(g) == 6, "girth must be 6")
    _gate(name, mad_exact(g) == Fraction(30, 13), "mad must be exactly 30/13")


@lru_cache(maxsize=1)
def builtin_graphs() -> dict[str, OrientedGraph]:
    """The named fixture set, validated against its gates."""
    c_minus4 = OrientedGraph(4, _C_MINUS4_ARCS, "c_minus4")
    e1 = OrientedGraph(13, _E1_ARCS, "e1")
    e2 = OrientedGraph(13, _E2_ARCS, "e2")
    e3 = OrientedGraph(13, _E3_ARCS, "e3")
    f = OrientedGraph(12, _F_ARCS, "f")
    m3p = OrientedGraph(8, _M3P_ARCS, "m3p")

    _gate("c3", C3.arc_set == directed_cycle(3).arc_set, "must be the directed 3-cycle")
    _gate("at_c3", AT_C3.arc_set == anti_twin(C3).arc_set, "must equal anti_twin(c3)")
    _gate(
        "c_minus4",
        (c_minus4.vertex_count, c_minus4.arc_count) == (4, 4),
        "must have 4 vertices, 4 arcs",
    )
    _gate("c_minus4", potential(c_minus4) == 8, "potential must be 8")
    _gate("c_minus4", girth(c_minus4) == 4, "girth must be 4")
    fwd = sum(1 for arc in ((0, 1), (1, 2), (2, 3), (3, 0)) if arc in c_minus4.arc_set)
    _gate("c_minus4", fwd % 2 == 1, "forward-arc parity around the 4-cycle must be odd")
    for name, g in (("e1", e1), ("e2", e2), ("e3", e3)):
        _gate_e(name, g)
    _gate("f", (f.vertex_count, f.arc_count) == (12, 14), "must have 12 vertices, 14 arcs")
    _gate("f", potential(f) == -2, "potential must be -2")
    _gate("f", _degree_profile(f) == {2: 8, 3: 4}, "degree profile must be 2^8 3^4")
    _gate("m3p", (m3p.vertex_count, m3p.arc_count) == (8, 9), "must have 8 vertices, 9 arcs")
    _gate("m3p", potential(m3p) == 3, "potential must be 3")
    _gate("m3p", _degree_profile(m3p) == {2: 6, 3: 2}, "degree profile must be 2^6 3^2")

    return {
        "c3": C3,
        "at_c3": AT_C3,
        "c_minus4": c_minus4,
        "e1": e1,
        "e2": e2,
        "e3": e3,
        "f": f,
        "m3p": m3p,
    }


def fixture(name: str) -> OrientedGraph:
    graphs = builtin_graphs()
    if name not in graphs:
        raise UnknownFixtureError(f"unknown fixture {name!r}; have {sorted(graphs)}")
    return graphs[name]
