"""Flat netlist graph.

The netlist is a directed graph whose nodes are component instances, named
by their hierarchical instance path (``soc/cpu_core/icg0``), and whose
edges are named connections (nets).  It is the structure on which the
removal-attack analysis of Section VI operates: a stand-alone load-circuit
watermark forms a weakly-connected cluster that can be excised without
touching functional logic, whereas the clock-modulation watermark shares its
clock-gate path with the functional IP block.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rtl.components import Component


class Netlist:
    """A flat design netlist.

    Each node carries the :class:`Component` (whose name is the instance
    path) and its ground-truth role -- ``"functional"``, ``"watermark"`` or
    ``"clock"`` -- used to score attack precision/recall.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # Instance -> (component, role), in insertion order.
        self._nodes: Dict[str, Tuple[Component, str]] = {}
        # Adjacency in both directions: node -> {neighbour: net}, in
        # insertion order, so iteration order never depends on hashing.
        self._succ: Dict[str, Dict[str, str]] = {}
        self._pred: Dict[str, Dict[str, str]] = {}

    # -- construction --------------------------------------------------

    def add_component(self, component: Component, role: str = "functional") -> None:
        """Add a component instance under its own (path) name."""
        name = component.name
        if name in self._nodes:
            raise ValueError(f"duplicate component name: {name!r}")
        if role not in ("functional", "watermark", "clock"):
            raise ValueError(f"unknown role {role!r}")
        self._nodes[name] = (component, role)
        self._succ[name] = {}
        self._pred[name] = {}

    def connect(self, source: str, target: str, net: str = "") -> None:
        """Add a directed connection (``source`` drives ``target``)."""
        for node in (source, target):
            if node not in self._nodes:
                raise KeyError(f"component {node!r} not present in netlist {self.name!r}")
        net = net or f"{source}->{target}"
        self._succ[source][target] = net
        self._pred[target][source] = net

    # -- queries --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def component(self, name: str) -> Component:
        """Return the component object stored under ``name``."""
        return self._nodes[name][0]

    def components(self, role: Optional[str] = None) -> List[Component]:
        """All components, optionally filtered by role."""
        return [
            component
            for component, node_role in self._nodes.values()
            if role is None or node_role == role
        ]

    def component_names(self, role: Optional[str] = None) -> List[str]:
        """Instance names, optionally filtered by role."""
        return [
            name
            for name, (_, node_role) in self._nodes.items()
            if role is None or node_role == role
        ]

    def fan_in(self, name: str) -> List[str]:
        """Instances driving ``name``."""
        return sorted(self._pred[name])

    @property
    def total_cells(self) -> int:
        """Total number of library cells across all instances."""
        return sum(c.cell_count for c in self.components())

    # -- structural analysis --------------------------------------------

    def _search(self, sources: Iterable[str]) -> Set[str]:
        """Breadth-first closure of ``sources`` over driven and driving edges."""
        seen = set(sources)
        queue = deque(seen)
        while queue:
            node = queue.popleft()
            for neighbour in [*self._succ[node], *self._pred[node]]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen

    def weakly_connected_clusters(self) -> List[Set[str]]:
        """Weakly-connected clusters, ordered by their first-added instance."""
        clusters: List[Set[str]] = []
        clustered: Set[str] = set()
        for name in self._nodes:
            if name not in clustered:
                cluster = self._search([name])
                clustered |= cluster
                clusters.append(cluster)
        return clusters

    def subgraph_stats(self, names: Iterable[str]) -> Dict[str, int]:
        """Cell/register counts of a candidate sub-circuit."""
        names = list(names)
        registers = sum(self.component(n).register_count for n in names)
        cells = sum(self.component(n).cell_count for n in names)
        return {"instances": len(names), "registers": registers, "cells": cells}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(len(targets) for targets in self._succ.values())
        return f"Netlist(name={self.name!r}, instances={len(self)}, edges={edges})"
