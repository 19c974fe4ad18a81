"""Flattened netlist graph.

The netlist is a directed graph whose nodes are component instances and
whose edges are named connections (nets).  It is the structure on which the
removal-attack analysis of Section VI operates: a stand-alone load-circuit
watermark forms a weakly-connected cluster that can be excised without
touching functional logic, whereas the clock-modulation watermark shares its
clock-gate path with the functional IP block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set

import networkx as nx

from repro.rtl.components import Component


@dataclass(frozen=True)
class NetlistEdge:
    """A directed connection between two component instances."""

    source: str
    target: str
    net: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.source} -> {self.target} [{self.net}]"


class Netlist:
    """A flattened design netlist.

    Nodes carry the :class:`Component` object plus metadata used by the
    analysis passes:

    ``role``
        ``"functional"``, ``"watermark"`` or ``"clock"`` -- the ground-truth
        label used to score attack precision/recall.
    ``module``
        The hierarchical module path the instance came from.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph = nx.DiGraph()

    # -- construction --------------------------------------------------

    def add_component(
        self,
        component: Component,
        role: str = "functional",
        module: str = "",
    ) -> None:
        """Add a component instance to the netlist."""
        if component.name in self.graph:
            raise ValueError(f"duplicate component name: {component.name!r}")
        if role not in ("functional", "watermark", "clock"):
            raise ValueError(f"unknown role {role!r}")
        self.graph.add_node(component.name, component=component, role=role, module=module)

    def connect(self, source: str, target: str, net: str = "") -> None:
        """Add a directed connection (``source`` drives ``target``)."""
        for node in (source, target):
            if node not in self.graph:
                raise KeyError(f"component {node!r} not present in netlist {self.name!r}")
        self.graph.add_edge(source, target, net=net or f"{source}->{target}")

    # -- queries --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.graph

    def __len__(self) -> int:
        return self.graph.number_of_nodes()

    def component(self, name: str) -> Component:
        """Return the component object stored under ``name``."""
        return self.graph.nodes[name]["component"]

    def role(self, name: str) -> str:
        """Return the ground-truth role of an instance."""
        return self.graph.nodes[name]["role"]

    def components(self, role: Optional[str] = None) -> List[Component]:
        """All components, optionally filtered by role."""
        result = []
        for name, data in self.graph.nodes(data=True):
            if role is None or data["role"] == role:
                result.append(data["component"])
        return result

    def component_names(self, role: Optional[str] = None) -> List[str]:
        """Instance names (graph keys), optionally filtered by role.

        For flattened hierarchies the instance name is the full
        hierarchical path, which may differ from the leaf component name.
        """
        return [
            name
            for name, data in self.graph.nodes(data=True)
            if role is None or data["role"] == role
        ]

    def edges(self) -> Iterator[NetlistEdge]:
        """Iterate over all connections."""
        for source, target, data in self.graph.edges(data=True):
            yield NetlistEdge(source=source, target=target, net=data.get("net", ""))

    def fan_in(self, name: str) -> List[str]:
        """Instances driving ``name``."""
        return sorted(self.graph.predecessors(name))

    def fan_out(self, name: str) -> List[str]:
        """Instances driven by ``name``."""
        return sorted(self.graph.successors(name))

    @property
    def total_registers(self) -> int:
        """Total number of flip-flops across all instances."""
        return sum(c.register_count for c in self.components())

    @property
    def total_cells(self) -> int:
        """Total number of library cells across all instances."""
        return sum(c.cell_count for c in self.components())

    # -- structural analysis --------------------------------------------

    def weakly_connected_clusters(self) -> List[Set[str]]:
        """Weakly-connected clusters of the netlist graph."""
        return [set(c) for c in nx.weakly_connected_components(self.graph)]

    def reachable_from(self, sources: Iterable[str]) -> Set[str]:
        """All instances reachable (forward) from the given sources."""
        reachable: Set[str] = set()
        for source in sources:
            if source not in self.graph:
                raise KeyError(f"component {source!r} not present in netlist")
            reachable |= nx.descendants(self.graph, source)
            reachable.add(source)
        return reachable

    def subgraph_stats(self, names: Iterable[str]) -> Dict[str, int]:
        """Cell/register counts of a candidate sub-circuit."""
        names = list(names)
        registers = sum(self.component(n).register_count for n in names)
        cells = sum(self.component(n).cell_count for n in names)
        return {"instances": len(names), "registers": registers, "cells": cells}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist(name={self.name!r}, instances={len(self)}, "
            f"edges={self.graph.number_of_edges()})"
        )
