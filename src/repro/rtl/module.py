"""Hierarchical module system.

A :class:`Module` groups components and child modules under a hierarchical
path (the way RTL designs are organised) and can be flattened into a
:class:`~repro.rtl.netlist.Netlist` for structural analysis.  Soft-IP
watermarking happens at exactly this level: the WGC is instantiated inside
some sub-module of the IP block and its output is wired into an existing
clock gate's enable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.rtl.components import Component
from repro.rtl.netlist import Netlist


class Module:
    """A hierarchical design module.

    Parameters
    ----------
    name:
        Instance name of this module (not the full path).
    role:
        Default role assigned to components added to this module; used as
        ground truth by the attack analysis.
    """

    def __init__(self, name: str, role: str = "functional") -> None:
        if not name or "/" in name:
            raise ValueError(f"module name must be non-empty and not contain '/': {name!r}")
        self.name = name
        self.role = role
        self.components: Dict[str, Component] = {}
        self.component_roles: Dict[str, str] = {}
        self.children: Dict[str, "Module"] = {}
        self.connections: List[Tuple[str, str, str]] = []

    # -- construction ----------------------------------------------------

    def add_component(self, component: Component, role: Optional[str] = None) -> Component:
        """Add a leaf component to this module."""
        if component.name in self.components:
            raise ValueError(f"duplicate component {component.name!r} in module {self.name!r}")
        self.components[component.name] = component
        self.component_roles[component.name] = role or self.role
        return component

    def add_child(self, module: "Module") -> "Module":
        """Add a child module instance."""
        if module.name in self.children:
            raise ValueError(f"duplicate child module {module.name!r} in {self.name!r}")
        self.children[module.name] = module
        return module

    def connect(self, source: str, target: str, net: str = "") -> None:
        """Record a connection between two (possibly hierarchical) instance paths.

        Paths are relative to this module, e.g. ``"wgc/lfsr"`` or ``"icg0"``.
        Validation happens at flatten time, when the full hierarchy is known.
        """
        self.connections.append((source, target, net))

    # -- queries ---------------------------------------------------------

    def iter_components(self, prefix: str = "") -> Iterator[Tuple[str, Component, str]]:
        """Yield ``(path, component, role)`` for every leaf component below this module."""
        base = f"{prefix}{self.name}"
        for name, component in self.components.items():
            yield f"{base}/{name}", component, self.component_roles[name]
        for child in self.children.values():
            yield from child.iter_components(prefix=f"{base}/")

    @property
    def register_count(self) -> int:
        """Total flip-flop count of the module subtree."""
        return sum(c.register_count for _, c, _ in self.iter_components())

    @property
    def cell_count(self) -> int:
        """Total library cell count of the module subtree."""
        return sum(c.cell_count for _, c, _ in self.iter_components())

    def find(self, path: str) -> Component:
        """Look up a leaf component by path relative to this module."""
        parts = path.split("/")
        module: Module = self
        for part in parts[:-1]:
            if part not in module.children:
                raise KeyError(f"no child module {part!r} under {module.name!r}")
            module = module.children[part]
        leaf = parts[-1]
        if leaf not in module.components:
            raise KeyError(f"no component {leaf!r} in module {module.name!r}")
        return module.components[leaf]

    # -- flattening --------------------------------------------------------

    def flatten(self) -> Netlist:
        """Flatten the hierarchy into a netlist graph."""
        netlist = Netlist(self.name)
        for path, component, role in self.iter_components():
            # Store under the hierarchical path but keep the component object;
            # paths are unique by construction.
            netlist.add_component(component, role=role, module=self.name, instance=path)
        self._flatten_connections(netlist, prefix="")
        return netlist

    def _flatten_connections(self, netlist: Netlist, prefix: str) -> None:
        base = f"{prefix}{self.name}"
        for source, target, net in self.connections:
            src_path = f"{base}/{source}"
            dst_path = f"{base}/{target}"
            if src_path not in netlist or dst_path not in netlist:
                raise KeyError(
                    f"connection {source!r} -> {target!r} in module {self.name!r} "
                    "references unknown instances"
                )
            netlist.connect(src_path, dst_path, net)
        for child in self.children.values():
            child._flatten_connections(netlist, prefix=f"{base}/")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Module(name={self.name!r}, components={len(self.components)}, "
            f"children={len(self.children)})"
        )
