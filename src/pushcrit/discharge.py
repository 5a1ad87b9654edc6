"""Charge bookkeeping audit.

Every vertex starts with charge 13*deg(x) - 30, so the total is twice the
arc weight minus the vertex weight of the potential, i.e. -2 * potential.
Five local rules then move charge around; rules only ever transfer, so
the total is conserved and the audit checks that identity on every run,
raising ``SelfCheckError`` if it fails.
The per-class lower bounds from the corresponding table are evaluated
informatively: they are guarantees about a hypothetical minimal graph,
not about arbitrary inputs, so the report records pass/fail without
asserting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import classify_vertices
from .errors import SelfCheckError
from .graph import (
    POTENTIAL_ARC_WEIGHT,
    POTENTIAL_VERTEX_WEIGHT,
    OrientedGraph,
    json_fields,
    potential,
)


def initial_charge(degree: int) -> int:
    return POTENTIAL_ARC_WEIGHT * degree - 2 * POTENTIAL_VERTEX_WEIGHT


def updated_charge_lower_bound(degree: int, total: int | None):
    """Tabled lower bound for the updated charge of a vertex class.

    ``total`` is the chain-incident 2-vertex count (None for 2-vertices).
    Returns None when no table row covers the class.
    """
    if degree == 2:
        return 0
    if degree == 3:
        if total <= 1:
            return 3
        if total <= 3:
            return 1
        return 0
    if degree == 4:
        if total <= 9:
            return 3
        if total == 10:
            return 2
        return None
    if degree >= 5:
        if total <= 3 * degree:
            return 5
        return None
    return None


@dataclass(frozen=True)
class BoundCheck:
    vertex: int
    degree: int
    total: int
    bound: int
    final: int
    ok: bool


@dataclass(frozen=True)
class DischargingReport:
    initial: tuple[int, ...]
    final: tuple[int, ...]
    total_initial: int
    total_final: int
    lower_bound_checks: tuple[BoundCheck, ...]

    def to_json_dict(self) -> dict:
        return json_fields(self)


def discharging_audit(g: OrientedGraph) -> DischargingReport:
    """Apply the five transfer rules and report charges and identities.

    Rules, each donated by every 3+-vertex v:
      1. 2 to each 2-vertex inside a chain ending at v;
      2. 3 to each adjacent 3-vertex with 6 chain-incident 2-vertices;
      3. 1 to each adjacent 3-vertex with 5 of them;
      4. 3 to each 3-vertex with 6 of them joined to v by a 1-chain;
      5. 1 to each 3-vertex with 5 of them joined to v by a 1-chain,
         unless v itself is a 3-vertex with 5 of them.
    """
    kernel = classify_vertices(g)
    total = {v: sum(d) for v, d in kernel.descriptors.items()}
    deg = g.degrees
    charge = [initial_charge(d) for d in deg]
    initial = tuple(charge)
    for p in kernel.paths:
        # rule 1: each end gives 2 to each internal vertex
        charge[p[0]] -= 2 * (len(p) - 2)
        charge[p[-1]] -= 2 * (len(p) - 2)
        for u in p[1:-1]:
            charge[u] += 4
    # rules 2/3 along 0-chains, 4/5 along 1-chains; two chains of one
    # length to one neighbor give once
    links = {
        (donor, u, len(p) - 2)
        for p in kernel.paths
        if len(p) <= 3
        for donor, u in ((p[0], p[-1]), (p[-1], p[0]))
    }
    for donor, u, dist in links:
        if deg[u] != 3:
            continue
        if total[u] == 6:
            give = 3
        elif total[u] == 5 and not (dist == 1 and deg[donor] == 3 and total[donor] == 5):
            give = 1
        else:
            continue
        charge[donor] -= give
        charge[u] += give

    checks = []
    for v, degree in enumerate(deg):
        t = total.get(v, 0)
        bound = updated_charge_lower_bound(degree, t)
        if bound is not None:
            checks.append(BoundCheck(v, degree, t, bound, charge[v], charge[v] >= bound))
    report = DischargingReport(
        initial=initial,
        final=tuple(charge),
        total_initial=sum(initial),
        total_final=sum(charge),
        lower_bound_checks=tuple(checks),
    )
    if report.total_final != report.total_initial:
        raise SelfCheckError("discharging changed the total charge")
    if report.total_initial != -2 * potential(g):
        raise SelfCheckError("the initial charge is not -2 times the potential")
    return report
