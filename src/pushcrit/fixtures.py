"""Builtin named graphs.

Each name is a package file ``fixtures/<name>.og`` in the graph text
format, the only copy of that graph's arcs; its comment lines carry the
drawing's vertex labels.  The arc lists are transcriptions of drawings,
so each one is gated by independent invariants (vertex/arc counts,
degree profile, girth, exact maximum average degree, potential) before
being handed out; a gate failure means a transcription bug, never a
caller error.  Where a drawing carries ambiguous vertex labels the
transcription follows the arc incidences.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .density import mad_exact
from .errors import FixtureIntegrityError, UnknownFixtureError
from .graph import (
    OrientedGraph,
    anti_twin,
    directed_cycle,
    forward_parity,
    girth,
    parse_graph,
    potential,
)

# exceptional pushably 3-critical graphs, by fixture name
EXCEPTION_NAMES = ("c_minus4", "e1", "e2", "e3")

_FIXTURE_DIR = Path(__file__).with_name("fixtures")

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
    """The named fixture set, one per package file, validated against its gates."""
    graphs = {
        path.stem: parse_graph(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(_FIXTURE_DIR.glob("*.og"))
    }
    c3, at_c3, c_minus4 = graphs["c3"], graphs["at_c3"], graphs["c_minus4"]
    f, m3p = graphs["f"], graphs["m3p"]

    for name, g, ref, detail in (
        ("c3", c3, directed_cycle(3), "must be the directed 3-cycle"),
        ("at_c3", at_c3, anti_twin(c3), "must equal anti_twin(c3)"),
    ):
        _gate(name, (g.vertex_count, g.arc_set) == (ref.vertex_count, ref.arc_set), detail)
    _gate(
        "c_minus4",
        (c_minus4.vertex_count, c_minus4.arc_count) == (4, 4),
        "must have 4 vertices, 4 arcs",
    )
    _gate("c_minus4", potential(c_minus4) == 8, "potential must be 8")
    _gate("c_minus4", girth(c_minus4) == 4, "girth must be 4")
    _gate(
        "c_minus4",
        forward_parity(c_minus4, (0, 1, 2, 3)) == 1,
        "forward-arc parity around the 4-cycle must be odd",
    )
    for name in ("e1", "e2", "e3"):
        _gate_e(name, graphs[name])
    _gate("f", (f.vertex_count, f.arc_count) == (12, 14), "must have 12 vertices, 14 arcs")
    _gate("f", potential(f) == -2, "potential must be -2")
    _gate("f", _degree_profile(f) == {2: 8, 3: 4}, "degree profile must be 2^8 3^4")
    _gate("m3p", (m3p.vertex_count, m3p.arc_count) == (8, 9), "must have 8 vertices, 9 arcs")
    _gate("m3p", potential(m3p) == 3, "potential must be 3")
    _gate("m3p", _degree_profile(m3p) == {2: 6, 3: 2}, "degree profile must be 2^6 3^2")

    return graphs


def fixture(name: str) -> OrientedGraph:
    graphs = builtin_graphs()
    if name not in graphs:
        raise UnknownFixtureError(f"unknown fixture {name!r}; have {sorted(graphs)}")
    return graphs[name]
