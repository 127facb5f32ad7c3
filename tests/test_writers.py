"""Each run fact has one writer in the simulator's source.

The message counts, who holds each copy, who is still wandering and which
families exist are each changed by one method of ``World``; everything
else reads them.  The counts of copies placed, denied and sacrificed are
read-only views of the ledger's, stored nowhere.  The graph's adjacency, edge count and kept CSR have a
fixed set of writers, none of which removes an edge.  This test parses
``src/uswsim/*.py`` and lists, per attribute name, every function that
changes it: an assignment or ``del`` through it (``x.attr[k] = v``,
``x.attr += n``, ``x.attr = v`` outside ``__init__``) or a call of a
mutating method on it (``x.attr.add(v)``).  A local name bound to
``x.attr`` counts as the attribute itself.
"""

import ast
from pathlib import Path

import uswsim
from uswsim.engine import World

SRC = Path(uswsim.__file__).resolve().parent
MUTATORS = {"add", "append", "clear", "difference_update", "discard", "extend",
            "insert", "intersection_update", "pop", "popitem", "remove", "setdefault",
            "symmetric_difference_update", "update"}
ONE_WRITER = {
    "counts": {"World.send"},
    "copies": {"World.note_copy"},
    "foreign": {"World.note_copy"},
    "wanderers": {"World.introduce_do", "World._connect"},
    "families": {"World.register_family"},
}

# A family's belief keys are the hosts it has heard of, so only a copy
# request, a sacrifice and an announcement write a belief, and nothing else
# deletes or pops one (the argument in ``World._process_place``).
BELIEF_WRITERS = {"place_copy", "try_sacrifice", "announce_new_host"}

# A graph's kept CSR is handed back while its node order and degrees hold,
# which is sound only because no code removes an edge or a node.
GRAPH_WRITERS = {
    "adj": {"FriendshipGraph.add_node", "FriendshipGraph.add_edge", "finalize_links",
            "uniform_random_graph"},
    "edge_count": {"FriendshipGraph.add_edge", "finalize_links", "uniform_random_graph"},
    "_csr_memo": {"_csr", "uniform_random_graph"},
}


class Writers(ast.NodeVisitor):
    """Collect (attribute, qualified function name) for every change found."""

    def __init__(self):
        self.scope: list[str] = []
        self.aliases: dict[str, str] = {}
        self.found: set[tuple[str, str]] = set()

    def _attr(self, node):
        """The attribute a target or receiver expression names, if any."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return None

    def _write(self, target, rebinding_ok=False):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write(elt, rebinding_ok)
            return
        if isinstance(target, ast.Name):
            return  # rebinding a local changes no shared state
        if rebinding_ok and isinstance(target, ast.Attribute) and self.scope[-1:] == ["__init__"]:
            return  # the constructor creating the attribute
        attr = self._attr(target)
        if attr is not None:
            self.found.add((attr, ".".join(self.scope)))

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        outer = self.aliases
        self.scope.append(node.name)
        self.aliases = dict(outer)
        self.generic_visit(node)
        self.aliases = outer
        self.scope.pop()

    def visit_Assign(self, node):
        for target in node.targets:
            self._write(target, rebinding_ok=True)
            if isinstance(target, ast.Name):
                if isinstance(node.value, ast.Attribute):
                    self.aliases[target.id] = node.value.attr
                else:
                    self.aliases.pop(target.id, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._write(node.target, rebinding_ok=True)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.target, ast.Name):
            attr = self.aliases.get(node.target.id)
            if attr is not None:
                self.found.add((attr, ".".join(self.scope)))
        else:
            self._write(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            if not isinstance(target, ast.Name):
                self._write(target)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            attr = self._attr(func.value)
            if attr is not None:
                self.found.add((attr, ".".join(self.scope)))
        self.generic_visit(node)


def writers() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        visitor = Writers()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for attr, where in visitor.found:
            found.setdefault(attr, set()).add(where)
    return found


def test_each_run_fact_has_one_writer():
    found = writers()
    assert {attr: found.get(attr, set()) for attr in ONE_WRITER} == ONE_WRITER


def test_copy_outcomes_are_read_from_the_ledger():
    # How each copy request ended is counted once, by the ledger: these
    # names are read-only views of its counts, and nothing stores them.
    names = ("placements", "denials", "sacrifices")
    views = {name: vars(World).get(name) for name in names}
    assert all(isinstance(v, property) and v.fset is None for v in views.values()), views
    found = writers()
    assert {name: found.get(name, set()) for name in names} == dict.fromkeys(names, set())


def test_beliefs_are_written_by_requests_and_news_only():
    assert writers().get("believed_free", set()) == BELIEF_WRITERS


def test_graph_writers_only_add():
    found = writers()
    assert {attr: found.get(attr, set()) for attr in GRAPH_WRITERS} == GRAPH_WRITERS


def test_scanner_sees_each_kind_of_write():
    source = """
class C:
    def __init__(self):
        self.copies = set()
    def item(self):
        self.families[1] = 2
    def aug(self):
        self.ledger.counts[0] += 1
    def method(self, fam):
        fam.copies.add(3)
    def alias(self):
        w = self.wanderers
        w.pop(1)
    def alias_aug(self):
        c = self.counts
        c[0] += 1
    def rebind(self):
        self.foreign = set()
    def gone(self):
        del self.families[1]
    def reads(self, fam):
        pool = set(fam.copies)
        pool -= fam.copies
        pool.add(1)
        return len(self.wanderers)
"""
    visitor = Writers()
    visitor.visit(ast.parse(source))
    assert visitor.found == {
        ("families", "C.item"), ("counts", "C.aug"), ("copies", "C.method"),
        ("wanderers", "C.alias"), ("counts", "C.alias_aug"), ("foreign", "C.rebind"),
        ("families", "C.gone"),
    }
