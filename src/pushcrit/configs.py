"""Reducible-configuration gadgets and their extendability verifier.

A configuration is a gadget graph with a designated boundary: the
boundary vertices get arbitrary colors, the rest (the set X) is uncolored
and pushable.  The configuration is reducible when, for every orientation
of the gadget's arcs (taken up to pushing X, which is a free action) and
every boundary coloring, the partial coloring extends.

A gadget is a kernel, the internal-vertex count of each of its chains,
and a boundary: its centers are joined by chains and hang chains, and
the far end of each hanging chain is a boundary vertex.  One
``chains.Kernel.subdivided`` call builds its graph.  Its arcs point from
the lower vertex to the higher one, and neither route below reads their
directions: both range over every orientation of the edges.

Parametric configurations are instantiated at the minimal parameter their
reduction argument needs, over every admissible distribution of chain
internal counts (chain pieces hold at most 3 internal 2-vertices because
longer chains are themselves reducible).  The three 6-cycle
configurations additionally constrain the cycle to be directed, which up
to internal pushes is exactly an even-forward-parity constraint: the
sweep walks every push class and keeps those whose cycle has forward
parity 0 (``graph.forward_parity``, a push invariant).

Two routes decide reducibility.  The exhaustive sweep runs one AT(C3)
search per orientation class and boundary coloring.  The tree DP, the
tree version of the path color-propagation table (``path_color_sets``),
decides a gadget in one pass when X induces a tree, every boundary vertex
is a leaf hanging off X, and no cycle is constrained; this shape is read
from the graph, never from the configuration id.  Rooting X anywhere, it
keeps for every vertex the family of AT(C3) state masks its subtree can
force over all orientations and boundary colorings, reduced to the
inclusion-minimal masks: a boundary leaf forces the singleton of its
color, a child with mask S joined by an arc in either direction forces
the in- or out-neighborhood of S, and a vertex forces the intersections
of one forced mask per child.  The gadget is reducible exactly when the
empty mask never appears.  The DP agrees with the sweep because it
covers a superset of the sweep's cases with the same verdict on each:
every orientation, not one per push class (pushing X preserves
extendability), and every boundary coloring, not only those with the
first color pinned (rotating the colors preserves extendability).  An
irreducible gadget is handed to the sweep, which reports the first
counterexample in its enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .chains import Kernel
from .errors import ConfigError
from .graph import OrientedGraph, forward_parity
from .hom import (
    AT_C3,
    MappingSearcher,
    extend_partial,
    target_index,
)
from .orient import push_class_count, push_class_representatives

@dataclass(frozen=True)
class ConfigurationGadget:
    config_id: str
    graph: OrientedGraph
    boundary: frozenset
    params: tuple
    directed_cycles: tuple[tuple[int, ...], ...] = ()

    @property
    def internal(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(self.graph.vertex_count) if v not in self.boundary
        )


def _gadget(
    config_id: str,
    params: tuple,
    hangs: tuple[tuple[int, ...], ...],
    links: tuple[tuple[int, int, int], ...] = (),
    cycle: bool = False,
) -> ConfigurationGadget:
    """The gadget on one ``Kernel.subdivided`` graph.

    The kernel is the centers 0..k-1, k = len(hangs), then one boundary
    vertex per hanging chain: center c hangs a chain of t internal
    vertices to a fresh boundary vertex for each t in ``hangs[c]``, and
    each link (a, b, t) joins centers a and b by a chain of t internal
    vertices.  With ``cycle`` the first three links close the walk whose
    forward parity is constrained even.
    """
    k = len(hangs)
    ends = [(c, t) for c, counts in enumerate(hangs) for t in counts]
    chains = [*links, *((c, k + i, t) for i, (c, t) in enumerate(ends))]
    kernel = Kernel.subdivided(
        k + len(ends), [(a, b) for a, b, _ in chains], [t + 1 for _, _, t in chains]
    )
    cycles = (tuple(v for p in kernel.paths[:3] for v in p[:-1]),) if cycle else ()
    return ConfigurationGadget(
        config_id,
        OrientedGraph(kernel.n, kernel.edges, name=config_id.lower()),
        frozenset(range(k, k + len(ends))),
        params,
        cycles,
    )


def _center_with_chains(config_id: str, counts: tuple[int, ...]) -> ConfigurationGadget:
    return _gadget(config_id, (counts,), (counts,))


def _two_centers(
    config_id: str,
    link_internals: int,
    u_counts: tuple[int, ...],
    v_counts: tuple[int, ...],
) -> ConfigurationGadget:
    return _gadget(
        config_id,
        (link_internals, u_counts, v_counts),
        (u_counts, v_counts),
        ((0, 1, link_internals),),
    )


def _star_of_centers(
    config_id: str, hub_counts: tuple[int, ...], leaf_count: int
) -> ConfigurationGadget:
    """Hub 1-chain-adjacent to ``leaf_count`` centers of shape (3, 2)."""
    return _gadget(
        config_id,
        (hub_counts, leaf_count),
        (hub_counts,) + ((3, 2),) * leaf_count,
        tuple((0, leaf, 1) for leaf in range(1, leaf_count + 1)),
    )


# internal vertices on the cycle's links x-y, y-z and z-x, by order
_SIX_CYCLE_LINKS = {"xy": (0, 1, 2), "xu": (1, 1, 1)}


def _six_cycle(
    config_id: str,
    order: str,
    x_counts: tuple[int, ...],
    y_counts: tuple[int, ...],
    z_counts: tuple[int, ...],
) -> ConfigurationGadget:
    """Directed 6-cycle through x, y, z with hanging chains.

    ``order`` "xy" walks x,y,u1,z,u2,u3; "xu" walks x,u1,y,u2,z,u3.
    A z entry of -1 hangs a direct boundary neighbor off z, which is a
    chain of 0 internal vertices; -1 is kept in ``params`` only.
    """
    return _gadget(
        config_id,
        (order, x_counts, y_counts, z_counts),
        tuple(tuple(max(t, 0) for t in c) for c in (x_counts, y_counts, z_counts)),
        tuple((c, (c + 1) % 3, t) for c, t in enumerate(_SIX_CYCLE_LINKS[order])),
        cycle=True,
    )


# every configuration's gadget instances, by id, in the paper's order;
# each row builds its gadgets from the id it is given
_GADGETS = {
    # the chain of 4 internal vertices, read from its second one
    "C1": lambda cid: [_gadget(cid, (4,), ((1, 2),))],
    "C2": lambda cid: [_center_with_chains(cid, c) for c in ((3, 3, 1), (3, 2, 2))],
    "C3": lambda cid: [_center_with_chains(cid, (3, 3, 3, 2))],
    "C4": lambda cid: [_two_centers(cid, 0, (3, 2), (3, 2))],
    "C5": lambda cid: [_two_centers(cid, 0, (3, 3), (3, 3, 3))],
    "C6": lambda cid: [_two_centers(cid, 1, (3, 2), (3, 3, 2))],
    "C7": lambda cid: [
        _two_centers(cid, 1, u_counts, (3, 3, 3)) for u_counts in ((3, 1), (2, 2))
    ],
    # C8..C10: centers u, w, v with u joined to w and to v
    "C8": lambda cid: [
        _gadget(cid, (), ((3,), (3, 2), (3, 3, 3)), ((0, 1, 0), (0, 2, 1)))
    ],
    "C9": lambda cid: [
        _gadget(cid, (), ((3, 3), (3, 3), (3, 2)), ((0, 1, 0), (0, 2, 1)))
    ],
    "C10": lambda cid: [
        _gadget(cid, (), ((2,), (3, 1), (3, 3, 3)), ((0, 1, 1), (0, 2, 1)))
    ],
    "C11": lambda cid: [_star_of_centers(cid, (3, 2), 2)],
    "C12": lambda cid: [_star_of_centers(cid, (3,), 3)],
    "C13": lambda cid: [_star_of_centers(cid, (), 4)],
    "C14": lambda cid: [_six_cycle(cid, "xy", (3,), (3,), (-1,))],
    "C15": lambda cid: [_six_cycle(cid, "xy", (3,), (1,), (1,))],
    "C16": lambda cid: [_six_cycle(cid, "xu", (3,), (2,), (-1,))],
}
CONFIG_IDS = tuple(_GADGETS)


def gadgets_for(config_id: str) -> list[ConfigurationGadget]:
    """Every gadget instance realizing one configuration."""
    if config_id not in _GADGETS:
        raise ConfigError(f"unknown configuration id {config_id!r}")
    return _GADGETS[config_id](config_id)


def negative_control_gadget() -> ConfigurationGadget:
    """A non-reducible gadget: center 0 with boundary neighbors 1, 2 and
    3.  Three arcs into the center from boundary vertices colored 0, 1 and
    2 leave it no color, so the sweep must report a counterexample."""
    return _gadget("NEG", (), ((0, 0, 0),))


# -- orientation enumeration ---------------------------------------------------


def orientation_representatives(gadget: ConfigurationGadget):
    """All orientations of the gadget, one per pushing-X class, in which
    every closed walk of ``gadget.directed_cycles`` has even forward
    parity: the class walk, filtered by ``forward_parity``."""
    g = gadget.graph
    for arcs in push_class_representatives(g.vertex_count, g.edges, gadget.internal):
        oriented = OrientedGraph(g.vertex_count, arcs)
        if not any(forward_parity(oriented, cycle) for cycle in gadget.directed_cycles):
            yield oriented


def _boundary_colorings(boundary: tuple[int, ...], reduce_rotation: bool):
    if not boundary:
        yield {}
        return
    first, rest = boundary[0], boundary[1:]
    first_colors = (0,) if reduce_rotation else (0, 1, 2)
    for c0 in first_colors:
        for others in product((0, 1, 2), repeat=len(rest)):
            coloring = {first: c0}
            coloring.update(zip(rest, others))
            yield coloring


@dataclass(frozen=True)
class ConfigurationCheck:
    """Verdict and case counts of one gadget.

    ``method`` names the route that decided the gadget ("tree_dp" or
    "sweep"); it is not part of the JSON evidence, which is the same from
    both routes.
    """

    gadget: ConfigurationGadget
    ok: bool
    orientations: int
    colorings_per_orientation: int
    cases_checked: int
    counterexample: tuple | None = None
    method: str = "sweep"

    def to_json_dict(self) -> dict:
        out = {
            "config": self.gadget.config_id,
            "params": repr(self.gadget.params),
            "ok": self.ok,
            "orientations": self.orientations,
            "colorings_per_orientation": self.colorings_per_orientation,
            "cases_checked": self.cases_checked,
        }
        if self.counterexample is not None:
            arcs, coloring = self.counterexample
            out["counterexample"] = {
                "arcs": [list(a) for a in arcs],
                "boundary_coloring": {str(v): c for v, c in sorted(coloring.items())},
            }
        return out


# -- tree DP -------------------------------------------------------------------


def _tree_children(gadget: ConfigurationGadget):
    """Root-first X vertices and children lists, or None off the tree shape.

    The shape: no directed-cycle constraint, X non-empty and inducing a
    tree, and every boundary vertex a leaf whose one neighbor lies in X.
    Boundary leaves appear as children but are never expanded.
    """
    if gadget.directed_cycles:
        return None
    g = gadget.graph
    x = gadget.internal
    inside = set(x)
    if not x or any(
        len(g.neighbors(b)) != 1 or g.neighbors(b)[0] not in inside
        for b in gadget.boundary
    ):
        return None
    if sum(1 for t, h in g.edges if t in inside and h in inside) != len(x) - 1:
        return None
    children: dict[int, list[int]] = {v: [] for v in x}
    order = [x[0]]
    seen = {x[0]}
    for v in order:
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                children[v].append(w)
                if w in inside:
                    order.append(w)
    if len(order) != len(x):
        return None
    return order, children


def _minimal_masks(masks) -> tuple[int, ...]:
    """The inclusion-minimal members of a set of masks."""
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & m == k for k in out):
            out.append(m)
    return tuple(out)


@lru_cache(maxsize=1)
def _neighborhood_tables() -> tuple[tuple[int, ...], ...]:
    """Unions of the AT(C3) in-masks, and of the out-masks, over each state set."""
    at = target_index(AT_C3)
    tables = []
    for masks in (at.in_masks, at.out_masks):
        table = [0] * (at.full_mask + 1)
        for s in range(1, at.full_mask + 1):
            low = s & -s
            table[s] = table[s ^ low] | masks[low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _tree_reducible(gadget: ConfigurationGadget) -> bool:
    """True when the tree DP proves the gadget reducible.

    False means the gadget is off the tree shape or irreducible; either way
    the sweep has to decide it.
    """
    shape = _tree_children(gadget)
    if shape is None:
        return False
    order, children = shape
    tables = _neighborhood_tables()
    full = target_index(AT_C3).full_mask
    boundary_family = (0b001, 0b010, 0b100)  # colors are AT(C3)'s unpushed states
    family: dict[int, tuple[int, ...]] = {}
    for v in reversed(order):
        forced: tuple[int, ...] = (full,)
        for u in children[v]:
            child = family[u] if u in family else boundary_family
            pulled = _minimal_masks(table[s] for s in child for table in tables)
            forced = _minimal_masks(a & b for a in forced for b in pulled)
            if forced[0] == 0:
                return False
        family[v] = forced
    return True


# -- verification --------------------------------------------------------------


def _sweep_configuration(
    gadget: ConfigurationGadget, reduce_rotation: bool = True
) -> ConfigurationCheck:
    """One AT(C3) search per orientation class and boundary coloring;
    ``reduce_rotation`` pins the first boundary color to 0."""
    boundary = tuple(sorted(gadget.boundary))
    colorings = list(_boundary_colorings(boundary, reduce_rotation))
    orientations = 0
    cases = 0
    for oriented in orientation_representatives(gadget):
        orientations += 1
        template = [
            1 if v in gadget.boundary else 0b111111
            for v in range(oriented.vertex_count)
        ]
        searcher = MappingSearcher(oriented, template)
        for coloring in colorings:
            cases += 1
            cert = extend_partial(oriented, coloring, searcher=searcher)
            if cert is None:
                return ConfigurationCheck(
                    gadget,
                    False,
                    orientations,
                    len(colorings),
                    cases,
                    (oriented.arcs, coloring),
                )
    return ConfigurationCheck(gadget, True, orientations, len(colorings), cases)


def verify_configuration(gadget: ConfigurationGadget) -> ConfigurationCheck:
    """Check extendability over all orientations and boundary colorings.

    Rotating all three colors commutes with extension (the target's color
    classes are rotation symmetric), so the first boundary color is pinned
    to 0.

    A gadget of the tree shape (see the module docstring) that the tree DP
    proves reducible is decided without any search; every other gadget,
    and every irreducible one, goes through the exhaustive sweep.  The
    counts are those of the sweep in both cases.  For a DP-decided gadget
    they are computed, not enumerated: the orientation classes come from
    ``push_class_count``, the colorings are 3^(|B|-1), and
    ``cases_checked`` is their product, the cases the DP decides jointly.
    """
    if not _tree_reducible(gadget):
        return _sweep_configuration(gadget)
    g = gadget.graph
    orientations = push_class_count(g.vertex_count, g.edges, gadget.internal)
    b = len(gadget.boundary)
    colorings = 3 ** (b - 1) if b else 1
    return ConfigurationCheck(
        gadget,
        True,
        orientations,
        colorings,
        orientations * colorings,
        method="tree_dp",
    )
