"""Reconstruction checks for the two hand-drawn colorable witnesses.

``verify_split_vertex_reconstructions`` rebuilds every 19-vertex graph in
which one of the three 13-vertex exceptional graphs appears with a
3-vertex split in two: the split vertex's role is shared by the far end
of a 2-chain and by a fresh 3-vertex that keeps the other two original
neighbors, and a second 2-chain plus a 1-chain tie the new material
together through a fresh degree-3 hub.  Gluing the two halves back
together must reproduce the exceptional graph up to push isomorphism;
every reconstruction passing that gate must admit a 3-coloring after
pushes, and the checker confirms exactly that, case by case.

The canonical labeling depends only on the underlying graph, and the 8
glued graphs of a split share one, as do the reconstructions of one role
triple; each such group is labeled once (``canon.CanonicalLabeling``) and
only the orientation is formed per graph.  Colorability too is decided
once per role triple: the reconstructions have cyclomatic number 4 and at
most 6 vertices of degree >= 3, so ``transfer.ChainGraph`` colors only
those and transfers the colors along the chains between them.  Its image
holds every colorable push class, and a reconstruction is colorable
exactly when its class lies in it.  No search runs per reconstruction.

``verify_fig6_coloring`` replays the drawn push set and vertex colors of
the 8-vertex witness and re-decides its colorability from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .canon import CanonicalLabeling, canonical_form
from .crit import is_pushably_k_colorable
from .errors import IncompatibleInputError
from .fixtures import M3P_COLORING, M3P_PUSH_SET, fixture
from .graph import OrientedGraph, potential
from .hom import C3, ColoringCertificate
from .orient import push_class_representatives
from .transfer import ChainGraph


@dataclass(frozen=True)
class ReconstructionInventory:
    source: str
    split_vertex: int
    valid_glue_orientations: int
    graphs_checked: int
    distinct_graphs: int
    colorable: int

    @property
    def ok(self) -> bool:
        return self.graphs_checked > 0 and self.colorable == self.graphs_checked

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "split_vertex": self.split_vertex,
            "valid_glue_orientations": self.valid_glue_orientations,
            "graphs_checked": self.graphs_checked,
            "distinct_graphs": self.distinct_graphs,
            "colorable": self.colorable,
            "ok": self.ok,
        }


def _three_vertices(g: OrientedGraph) -> list[int]:
    return [v for v in range(g.vertex_count) if g.degree(v) == 3]


def reconstruction_cases(source_name: str, split: int):
    """Yield every reconstructed graph for one source and split vertex.

    A direction pattern of the split vertex's three arcs is used when
    regluing the vertex with it reproduces the source up to push iso.
    """
    base = fixture(source_name)
    nbrs = sorted(base.neighbors(split))
    if len(nbrs) != 3:
        raise IncompatibleInputError(f"split vertex {split} has degree {len(nbrs)}")
    n = base.vertex_count
    index = {v: i for i, v in enumerate(v for v in range(n) if v != split)}
    kept = [(index[t], index[h]) for t, h in base.arcs if split not in (t, h)]

    def arc(w, nbr, dirs):
        return (w, index[nbr]) if dirs[nbr] else (index[nbr], w)

    base_form = canonical_form(base)
    gluings = []
    for bits in range(8):
        dirs = {nbr: bits >> i & 1 for i, nbr in enumerate(nbrs)}
        glued = kept + [arc(n - 1, nbr, dirs) for nbr in nbrs]
        gluings.append((dirs, OrientedGraph(n, tuple(glued))))
    # the gluings differ only in orientation: one labeling serves all 8
    labeling = CanonicalLabeling(gluings[0][1].adjacency_masks)
    valid_dirs = [dirs for dirs, glued in gluings if labeling.form(glued) == base_form]
    # 12 retained vertices, then: one half of the split vertex at the end
    # of a fresh 2-chain, the degree-3 hub, a second 2-chain, a 1-chain,
    # and the other half of the split vertex (19 vertices, 22 arcs)
    w_far, chain_a, hub = n - 1, n, n + 1
    chain_b1, chain_b2, link, w_new = n + 2, n + 3, n + 4, n + 5
    total = n + 6
    chain_edges = [
        (w_far, chain_a), (chain_a, hub),
        (hub, chain_b1), (chain_b1, chain_b2),
        (hub, link), (link, w_new),
    ]
    chain_edges = [(min(e), max(e)) for e in chain_edges]
    for dirs in valid_dirs:
        for roles in permutations(nbrs):
            far_end, hub_target, extra = roles
            fixed = kept + [
                arc(w_far, far_end, dirs),
                arc(w_new, hub_target, dirs),
                arc(w_new, extra, dirs),
            ]
            hub_chain_edge = (min(chain_b2, index[hub_target]), max(chain_b2, index[hub_target]))
            edges = sorted(
                set((min(t, h), max(t, h)) for t, h in fixed)
                | set(chain_edges)
                | {hub_chain_edge}
            )
            movable = (chain_a, hub, chain_b1, chain_b2, link)
            for arcs in push_class_representatives(total, edges, movable, fixed):
                yield dirs, roles, OrientedGraph(total, arcs)


def verify_split_vertex_reconstructions(sources=("e1", "e2", "e3")):
    """Check 3-colorability-after-pushes of every reconstructed graph."""
    inventories = []
    for name in sources:
        base = fixture(name)
        for split in _three_vertices(base):
            checked = 0
            colorable = 0
            valid = set()
            forms = set()
            # the role triple fixes the underlying graph
            groups: dict[tuple[int, ...], tuple[CanonicalLabeling, ChainGraph]] = {}
            for dirs, roles, graph in reconstruction_cases(name, split):
                valid.add(tuple(sorted(dirs.items())))
                checked += 1
                group = groups.get(roles)
                if group is None:
                    kept = [v for v, d in enumerate(graph.degrees) if d >= 3]
                    group = groups[roles] = (
                        CanonicalLabeling(graph.adjacency_masks),
                        ChainGraph(graph.vertex_count, graph.edges, kept),
                    )
                labeling, chains = group
                forms.add(labeling.form(graph))
                if chains.colorable(graph.arc_set):
                    colorable += 1
            inventories.append(
                ReconstructionInventory(
                    name, split, len(valid), checked, len(forms), colorable
                )
            )
    return inventories


# -- the 8-vertex drawn witness ----------------------------------------------


@dataclass(frozen=True)
class DrawnColoringReport:
    coloring_valid: bool
    recomputed_colorable: bool
    potential_value: int
    reversed_arc_recheck: str

    @property
    def ok(self) -> bool:
        return self.coloring_valid and self.recomputed_colorable and self.potential_value == 3

    def to_json_dict(self) -> dict:
        return {
            "coloring_valid": self.coloring_valid,
            "recomputed_colorable": self.recomputed_colorable,
            "potential": self.potential_value,
            "reversed_arc_recheck": self.reversed_arc_recheck,
            "ok": self.ok,
        }


def verify_fig6_coloring() -> DrawnColoringReport:
    g = fixture("m3p")
    cert = ColoringCertificate(M3P_PUSH_SET, M3P_COLORING, C3, "c3")
    drawn_ok = cert.verify(g)
    recheck = is_pushably_k_colorable(g, 3) is not None
    # smoke case: flip one arc arbitrarily and re-decide from scratch
    flipped = OrientedGraph(
        g.vertex_count, ((g.arcs[0][1], g.arcs[0][0]),) + g.arcs[1:]
    )
    flipped_verdict = (
        "colorable" if is_pushably_k_colorable(flipped, 3) is not None else "uncolorable"
    )
    return DrawnColoringReport(drawn_ok, recheck, potential(g), flipped_verdict)
