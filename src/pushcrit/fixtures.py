"""Builtin named graphs.

Each name is a package file ``fixtures/<name>.og`` in the graph text
format, the only copy of that graph's arcs; its comment lines carry the
drawing's vertex labels.  The arc lists are transcriptions of drawings,
so each one is gated before being handed out, on what the paper states
about it (``FACTS``: vertex/arc counts, girth, exact maximum average
degree, potential) and on the drawing's degree profile; a gate failure
means a transcription bug, never a caller error.  Where a drawing carries ambiguous vertex labels the
transcription follows the arc incidences.
"""

from __future__ import annotations

from collections import Counter
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


# what the paper states about each named graph, and the one copy of it:
# the loader gates each fixture on its row, and the criticality claims
# report the rows of the exceptions and f as their gates
FACTS = {
    # c_minus4's mad/girth pair witnesses that the sparse-graph
    # coloring guarantee needs both its girth and density hypotheses
    "c_minus4": {"n": 4, "m": 4, "girth": 4, "mad": "2"},
    "e1": {"n": 13, "m": 15, "girth": 6, "mad": "30/13"},
    "e2": {"n": 13, "m": 15, "girth": 6, "mad": "30/13"},
    "e3": {"n": 13, "m": 15, "girth": 6, "mad": "30/13"},
    "f": {"n": 12, "m": 14, "potential": -2},
    "m3p": {"n": 8, "m": 9, "potential": 3},
}

_MEASURES = {
    "n": lambda g: g.vertex_count,
    "m": lambda g: g.arc_count,
    "girth": girth,
    "mad": lambda g: str(mad_exact(g)),
    "potential": potential,
}

# the drawings' degree profiles: degree -> number of vertices
_DEGREE_PROFILES = {
    "e1": {2: 9, 3: 4},
    "e2": {2: 9, 3: 4},
    "e3": {2: 9, 3: 4},
    "f": {2: 8, 3: 4},
    "m3p": {2: 6, 3: 2},
}


def _gate(name: str, condition: bool, detail: str):
    if not condition:
        raise FixtureIntegrityError(f"fixture {name!r} failed its gate: {detail}")


@lru_cache(maxsize=1)
def builtin_graphs() -> dict[str, OrientedGraph]:
    """The named fixture set, one per package file, validated against its gates."""
    graphs = {
        path.stem: parse_graph(path.read_text(encoding="utf-8"), path.stem)
        for path in sorted(_FIXTURE_DIR.glob("*.og"))
    }
    c3 = graphs["c3"]
    for name, g, ref, detail in (
        ("c3", c3, directed_cycle(3), "must be the directed 3-cycle"),
        ("at_c3", graphs["at_c3"], anti_twin(c3), "must equal anti_twin(c3)"),
    ):
        _gate(name, (g.vertex_count, g.arc_set) == (ref.vertex_count, ref.arc_set), detail)
    for name, facts in FACTS.items():
        measured = {key: _MEASURES[key](graphs[name]) for key in facts}
        _gate(name, measured == facts, f"measured {measured}, the paper states {facts}")
    for name, profile in _DEGREE_PROFILES.items():
        measured = dict(sorted(Counter(graphs[name].degrees).items()))
        _gate(name, measured == profile, f"degree profile {measured}, not {profile}")
    _gate(
        "c_minus4",
        forward_parity(graphs["c_minus4"], (0, 1, 2, 3)) == 1,
        "forward-arc parity around the 4-cycle must be odd",
    )
    return graphs


def fixture(name: str) -> OrientedGraph:
    graphs = builtin_graphs()
    if name not in graphs:
        raise UnknownFixtureError(f"unknown fixture {name!r}; have {sorted(graphs)}")
    return graphs[name]
