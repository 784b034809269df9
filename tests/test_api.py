"""Every public name has a caller.

A name exported from ``normclust`` must be used somewhere in ``src/`` (outside
its own ``def`` or ``class`` and outside ``__init__.py``), ``scripts/`` or
``bench/``, or be listed in ``ALLOWED`` with the reason it stays.  Uses are
names and attribute lookups in the parsed code; comments, docstrings and
imports do not count.
"""

import ast
import inspect
from pathlib import Path

import normclust

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "bh_contains": "documented API: membership in a d-ball hull",
    "bh_membership_oracle": "the oracle's reference for ball-hull membership",
    "brute_force_k_partition": "the oracle's exhaustive reference for k-clustering",
    "feasible_2cluster": "documented API: 2-clustering at a fixed diameter bound",
    "hr_zones": "criterion 7 checks the zone-diameter property on its zones; TestZones pins them",
    "minimal_arcs": "documented API: the d-minimal arcs between two points",
    "stabbing_line": "bench/tracing.py looks it up by its name for --trace 1",
}


class _Uses(ast.NodeVisitor):
    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def test_every_public_name_has_a_caller():
    uses = _Uses()
    for folder in ("src", "scripts", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py":
                uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    public = {name for name in normclust.__all__ if not inspect.ismodule(getattr(normclust, name))}
    unused = sorted(public - uses.names - set(ALLOWED))
    assert not unused, f"public names without a caller: {unused}"
    stale = sorted(name for name in ALLOWED if name not in public or name in uses.names)
    assert not stale, f"allow-list entries that are not public or now have a caller: {stale}"
