"""REP001: mutators of flat-view caches must drop the cache and its debt.

``BPlusTree`` and ``OutlierBuffer`` keep a *flat view* of their entries
(``self._flat_view``, a :class:`repro.segments.FlatView`) that turns
batched lookups into pure array passes.  The view is only correct while
the underlying entries are unchanged, so **every** method that mutates
entry state must end its life with ``self._flat_view.drop()``.  A new
mutator that forgets the drop produces silently stale batch results,
which no test notices until a workload happens to interleave that
mutator with ``*_many`` lookups.

The rule applies to any class whose ``__init__`` assigns
``self._flat_view``.  A method counts as a mutator when it assigns,
augments or deletes one of the entry-state attributes below, or calls a
mutating container method on one; it satisfies the invariant when its
body calls ``self._flat_view.drop()`` or assigns ``self._flat_view =
None`` on some path (the rule is reachability-insensitive by design —
the cheap discipline is to drop unconditionally, which every site does).

A class that keeps the view raw next to its own amortisation debt counter
(an ``__init__`` attribute named ``*_debt``) must also reset the debt
wherever it assigns ``self._flat_view = None``: debt carried across a
write lets the first batch after every later write rebuild the O(n) view
for a single batch that cannot repay it.  ``FlatView.drop`` resets both.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import (
    Finding,
    Module,
    Rule,
    iter_methods,
    register,
    self_attr_target,
)

#: Attributes that hold entry state feeding the flat view.
ENTRY_STATE = frozenset({
    "_entries", "_sorted_keys", "_count", "_num_entries", "_root", "_height",
})

#: Container methods that mutate in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault",
})


def _mutated_state(method: ast.FunctionDef) -> set[str]:
    """Entry-state attributes this method mutates, by name."""
    mutated: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = self_attr_target(target)
                if attr in ENTRY_STATE:
                    mutated.add(attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = (target.value if isinstance(target, ast.Subscript)
                        else target)
                attr = self_attr_target(base)
                if attr in ENTRY_STATE:
                    mutated.add(attr)
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATING_METHODS):
                attr = self_attr_target(node.func.value)
                if attr in ENTRY_STATE:
                    mutated.add(attr)
    return mutated


def _reset_attrs(method: ast.FunctionDef, value: object) -> set[str]:
    """Self attributes the method assigns the constant ``value``."""
    return {
        self_attr_target(target)
        for node in ast.walk(method)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and node.value.value == value
        for target in node.targets
    }


def _calls_drop(method: ast.FunctionDef) -> bool:
    """Whether the method calls ``self._flat_view.drop()``."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "drop"
        and self_attr_target(node.func.value) == "_flat_view"
        for node in ast.walk(method)
    )


@register
class FlatViewInvalidation(Rule):
    rule_id = "REP001"
    name = "flat-view-invalidation"
    description = ("methods mutating flat-view-backed entry state must "
                   "drop self._flat_view and its debt")

    def check_module(self, module: Module) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            methods = list(iter_methods(class_node))
            init = next((m for m in methods if m.name == "__init__"), None)
            init_attrs = set() if init is None else {
                self_attr_target(t)
                for node in ast.walk(init) if isinstance(node, ast.Assign)
                for t in node.targets
            }
            if "_flat_view" not in init_attrs:
                continue
            debts = {attr for attr in init_attrs
                     if attr and attr.endswith("_debt")}
            for method in methods:
                if method.name == "__init__":
                    continue
                where = f"{class_node.name}.{method.name}"
                raw_drop = "_flat_view" in _reset_attrs(method, None)
                mutated = _mutated_state(method)
                if mutated and not (raw_drop or _calls_drop(method)):
                    yield Finding(
                        rule=self.rule_id,
                        message=(
                            f"{where} mutates {', '.join(sorted(mutated))} "
                            f"without dropping self._flat_view — batched "
                            f"lookups would serve a stale cache"
                        ),
                        path=module.path, line=method.lineno,
                    )
                kept = debts - _reset_attrs(method, 0) if raw_drop else set()
                if kept:
                    yield Finding(
                        rule=self.rule_id,
                        message=(
                            f"{where} drops self._flat_view but leaves "
                            f"{', '.join(sorted(kept))} standing — the next "
                            f"batch would rebuild the view on debt from "
                            f"before the write"
                        ),
                        path=module.path, line=method.lineno,
                    )
