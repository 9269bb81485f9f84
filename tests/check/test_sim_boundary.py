"""Simulator internals stay inside ``repro.sim``.

Code outside ``src/repro/sim/`` talks to the kernel through its public
calls (``schedule``, ``post``, ``at_tick_end``, ...).  The one private
attribute it may read is ``_now``, the clock slot, which hot paths read
directly instead of through the ``now`` property.  Anything else — the
queue, the sequence counter, the tick-end list — is the kernel's own: a
module that writes it by hand has copied a piece of the kernel that the
kernel can no longer change alone.

The scan is static: every attribute access ``<sim>._name`` where
``<sim>`` is a simulator reference (``sim``, ``self._sim``,
``world.sim``, or a local bound to one of those).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Names under which a Simulator is reachable.
SIM_NAMES = frozenset({"sim", "_sim", "simulator"})

#: Private attributes outside code may touch.
ALLOWED = frozenset({"_now"})


def _is_sim(node: ast.AST, aliases: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in SIM_NAMES or node.id in aliases
    return isinstance(node, ast.Attribute) and node.attr in SIM_NAMES


def private_sim_accesses(source: str) -> list[tuple[int, str]]:
    """``(line, attribute)`` for every forbidden private access."""
    tree = ast.parse(source)
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_sim(node.value, aliases):
            aliases.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and node.attr not in ALLOWED
                and _is_sim(node.value, aliases)):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_no_module_outside_sim_touches_kernel_privates():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "sim" and path.parent.parent == SRC:
            continue
        for line, attr in private_sim_accesses(path.read_text("utf-8")):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}: {attr}")
    assert not offenders, (
        "kernel internals used outside repro.sim (use the public "
        "Simulator API):\n" + "\n".join(offenders))


def test_scan_flags_hand_copied_kernel_code():
    """The scan catches the shapes a hand-inlined insert path takes, and
    lets the public API and the clock read through."""
    source = (
        "def f(self, conn, port, frame):\n"
        "    sim = self._world.sim\n"
        "    sim._seq += 1\n"
        "    self._world.sim._tick_end.append(conn.flush)\n"
        "    s = self._sim\n"
        "    s._heap.append(frame)\n"
        "    now = sim._now + self._sim._now\n"
        "    sim.post(now, self._forward, port, frame)\n"
        "    self._world.sim.at_tick_end(conn.flush)\n"
        "    self._stack._seq += 1\n"
    )
    assert private_sim_accesses(source) == [
        (3, "_seq"), (4, "_tick_end"), (6, "_heap")]
