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

Every glued graph is an orientation of the source, so one
``canon.CanonicalLabeling`` of the source decides the 8 gluings of all
its splits.  The reconstructions keep the source's vertex names: the
split vertex is the far half, n the fresh half, n + 1 the hub, and the
chain interiors follow.  Those of one role triple share their underlying
graph, and an automorphism s of the source maps it onto the role graph
of the triple's image as s itself, fixing the new vertices.  So one role
graph is labeled per orbit of the source's automorphisms on its role
triples, and every other triple of the orbit carries its arcs into that
representative's vertices by the inverse of s (``_role_graphs``).  One
``transfer.ChainGraph`` on each representative's canonical graph decides
the colorability of all its push classes at once: they have cyclomatic
number 4 and at most 6 vertices of degree >= 3, so it colors only those
and transfers the colors along the chains between them.  The 24 role
triples of a source fall into 4 orbits for e1 and e2 and 12 for e3, no
two with isomorphic role graphs: 20 labelings and images for 72 triples.

The cases are classes, never arc tuples, in the canonical (P1)
coordinates of the representative's labeling, which are also the
image's: the orientations of the 7 new chain edges up to pushing the hub
and the chain interiors.  In P1 coordinates a chain's edges flip the
class alike and the hub's push makes the three chains' flips sum to 0,
so (the given arcs being connected) the cases are one orientation's
class xor each sum of the flips of reversing a new edge.  A flip does
not depend on the orientation it starts from, so the 7 are computed
once per representative.  Each case then costs one orbit walk for its
form (``CanonicalLabeling.encode``) and one image lookup.
``reconstruction_cases`` in ``tests/test_reconstruct.py`` builds the same
cases as ``OrientedGraph``s and decides the gluings with a labeling of
its own; the tests form and search those graphs and hold the two paths
equal.

``verify_fig6_coloring`` replays the drawn push set and vertex colors of
the 8-vertex witness and re-decides its colorability from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .canon import CanonicalLabeling, orbit_of
from .chains import Kernel
from .crit import is_pushably_k_colorable
from .errors import IncompatibleInputError
from .fixtures import M3P_COLORING, M3P_PUSH_SET, fixture
from .graph import OrientedGraph, adjacency, json_fields, potential
from .hom import C3, ColoringCertificate
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
        return {**json_fields(self), "ok": self.ok}


def _three_vertices(g: OrientedGraph) -> list[int]:
    return [v for v in range(g.vertex_count) if g.degree(v) == 3]


def _split(base: OrientedGraph, split: int) -> list[int]:
    """The three neighbors of ``split`` in ``base``, ascending."""
    n = base.vertex_count
    if split not in range(n):
        raise IncompatibleInputError(f"split vertex {split} is not in 0..{n - 1}")
    nbrs = sorted(base.neighbors(split))
    if len(nbrs) != 3:
        raise IncompatibleInputError(f"split vertex {split} has degree {len(nbrs)}")
    return nbrs


def _glue_directions(nbrs):
    """The 8 direction patterns of the split vertex's arcs: nbr -> 1 when
    the arc points from the split vertex to nbr."""
    return [{nbr: bits >> i & 1 for i, nbr in enumerate(nbrs)} for bits in range(8)]


def _glue(far: int, fresh: int, roles, dirs) -> list[tuple[int, int]]:
    """The three glue arcs, as ``dirs`` orients them: the far half to the
    first role, the fresh half to the other two.  With far = fresh = the
    split vertex they glue the source back together."""
    return [(w, v) if dirs[v] else (v, w) for w, v in zip((far, fresh, fresh), roles)]


def _gadget(base: OrientedGraph, split: int, roles):
    """(vertex count, arcs, new edges) of one role triple's
    reconstructions, less the glue arcs, in the source's vertex names: the
    split vertex is the far half, n the fresh half, n + 1 the degree-3 hub,
    and n + 2 on the internal vertices of new chains of 2, 3 and 2 edges
    from the hub to the far half, to ``roles[1]`` and to the fresh half
    (19 vertices).  The arcs are the source's off the split vertex and the
    chains' ``new`` (lo, hi) edges, each as lo -> hi."""
    n = base.vertex_count
    chains = Kernel.subdivided(n + 2, [(split, n + 1), (n + 1, roles[1]), (n + 1, n)], [2, 3, 2])
    new = chains.edges
    return chains.n, [a for a in base.arcs if split not in a] + new, new


def _canonical_image(labeling: CanonicalLabeling) -> set[int]:
    """The colorable classes of ``labeling``'s canonical graph, in its
    canonical (P1) coordinates: the image of one ``ChainGraph`` on it."""
    # the canonical names of the vertices of degree >= 3
    kept = [p for p, mask in zip(labeling.labeling, labeling.adj) if mask.bit_count() >= 3]
    return ChainGraph(Kernel.of(len(labeling.adj), labeling.edges, kept)).image


@dataclass(frozen=True)
class _RoleGraph:
    """The labeled role graph of one orbit of role triples: its labeling,
    its colorable classes in canonical coordinates, and the class changes
    of reversing each set of new chain edges, 0 included.  The class map
    is affine, so a change does not depend on the class it starts from."""

    labeling: CanonicalLabeling
    image: set[int]
    reversals: frozenset[int]

    def verdicts(self, arcs) -> list[tuple[bytes, bool]]:
        """(push form, colorable) of each case of the orientation ``arcs``
        of this graph: its class xor each reversal."""
        labeling = self.labeling
        start = labeling.class_of(arcs)
        cases = {start ^ r for r in self.reversals}
        return [(labeling.encode(f), f in self.image) for f in cases]


def _role_graphs(base: OrientedGraph, source: CanonicalLabeling):
    """Every role triple (split, roles) of ``base`` -> (role graph, into,
    arcs): one ``_RoleGraph`` per orbit of the automorphisms of ``base``
    (``source`` labels it) on the triples, the map of the triple's
    role-graph vertices onto the representative's, and its ``_gadget``
    arcs.  An automorphism s maps the role graph of (split, roles) onto
    that of (s[split], s[roles]) as s itself, fixing n and above; the
    orbit walk carries with each triple the s that takes the
    representative there, and ``into`` is its inverse."""
    n = base.vertex_count
    gadgets = {
        (split, roles): _gadget(base, split, roles)
        for split in _three_vertices(base)
        for roles in permutations(_split(base, split))
    }

    def act(g, item):
        (split, roles), perm = item
        return (g[split], tuple(g[v] for v in roles)), tuple(g[v] for v in perm)

    found: dict = {}
    for (split, roles), (total, arcs, new) in gadgets.items():
        if (split, roles) in found:
            continue
        # every glue orientation gives the same underlying graph
        glued = arcs + _glue(split, n, roles, dict.fromkeys(roles, 0))
        labeling = CanonicalLabeling(tuple(adjacency(total, glued)))
        start = labeling.class_of(glued)
        reversals = {0}
        for e in new:
            flip = labeling.class_of([a for a in glued if a != e] + [e[::-1]]) ^ start
            reversals |= {r ^ flip for r in reversals}
        role = _RoleGraph(labeling, _canonical_image(labeling), frozenset(reversals))
        for triple, perm in orbit_of(((split, roles), tuple(range(n))), source.gens, act):
            into = sorted(range(n), key=perm.__getitem__) + list(range(n, total))
            # a triple reached by several automorphisms keeps the first
            found.setdefault(triple, (role, into, gadgets[triple][1]))
    return found


def _split_verdicts(base: OrientedGraph, source: CanonicalLabeling, split: int, role_graphs):
    """The glue orientations that reproduce ``base`` for one split, and
    (push form, colorable) per reconstruction.  ``source`` labels
    ``base``; ``role_graphs`` is ``_role_graphs`` of the two."""
    nbrs = _split(base, split)
    base_form = source.form(base)
    others = [arc for arc in base.arcs if split not in arc]
    valid_dirs = [
        dirs
        for dirs in _glue_directions(nbrs)
        if source.encode(source.class_of(others + _glue(split, split, nbrs, dirs))) == base_form
    ]
    verdicts = []
    for dirs in valid_dirs:
        for roles in permutations(nbrs):
            role, into, arcs = role_graphs[split, roles]
            glued = arcs + _glue(split, base.vertex_count, roles, dirs)
            verdicts += role.verdicts([(into[t], into[h]) for t, h in glued])
    return valid_dirs, verdicts


def verify_split_vertex_reconstructions(sources=("e1", "e2", "e3")):
    """Check 3-colorability-after-pushes of every reconstructed graph."""
    inventories = []
    for name in sources:
        base = fixture(name)
        splits = _three_vertices(base)
        if not splits:
            raise IncompatibleInputError(f"source {name!r} has no vertex of degree 3")
        # every glued graph of every split is an orientation of base
        source = CanonicalLabeling(base.adjacency_masks)
        role_graphs = _role_graphs(base, source)
        for split in splits:
            valid_dirs, verdicts = _split_verdicts(base, source, split, role_graphs)
            inventories.append(
                ReconstructionInventory(
                    name,
                    split,
                    len(valid_dirs),
                    len(verdicts),
                    len({form for form, _ in verdicts}),
                    sum(colorable for _, colorable in verdicts),
                )
            )
    return inventories


# -- the 8-vertex drawn witness ----------------------------------------------


@dataclass(frozen=True)
class DrawnColoringReport:
    coloring_valid: bool
    recomputed_colorable: bool
    potential: int
    reversed_arc_recheck: str

    @property
    def ok(self) -> bool:
        return self.coloring_valid and self.recomputed_colorable and self.potential == 3

    def to_json_dict(self) -> dict:
        return {**json_fields(self), "ok": self.ok}


def verify_fig6_coloring() -> DrawnColoringReport:
    g = fixture("m3p")
    cert = ColoringCertificate(M3P_PUSH_SET, M3P_COLORING, C3)
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
