"""REP004: hot batch paths stay vectorized.

The engine's batch throughput (PR 8) comes precisely from replacing
per-element Python loops with array passes — ``np.searchsorted`` over a
flat view instead of B tree descents, one segmented gather instead of B
list appends.  A per-element ``for`` loop over array-shaped data quietly
reintroduces the O(B) Python overhead the batch API exists to remove,
and no correctness test will ever object.

Scope — a function is *hot* when any of:

* its module carries a ``# repro: hot-module`` marker comment
  (``repro/segments.py`` and ``repro/engine/executor.py`` ship marked);
* it is a ``*_many`` / ``*_segmented`` method in an index module
  (``repro/index/``) or the outlier buffer (``repro/core/outliers.py``)
  — the vectorized entry points of every mechanism.

Inside a hot function the rule flags ``for`` statements whose iterable
is array-shaped: a bare parameter of the function (directly or through
``enumerate`` / ``zip`` / ``reversed``), anything dereferencing
``.tolist`` / ``.size`` / ``.shape`` / ``.item``, or ``np.nditer`` /
``np.ndenumerate``.  Comprehensions are deliberately not flagged — a
single C-level comprehension building a result list is often the
materialisation boundary itself.

Legitimate per-element paths (a structure's scalar probe primitive next
to its batch path) stay, suppressed per site with a rationale::

    # repro: ignore[REP004] -- per-key descent is the tree's point-probe
    #                          primitive; the batch path is *_segmented
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import (
    Finding,
    Module,
    Rule,
    dotted_name,
    register,
)

HOT_MODULE_MARKER = "hot-module"
HOT_METHOD_SUFFIXES = ("_many", "_segmented")
HOT_PATH_FRAGMENTS = ("repro/index/", "repro/core/outliers.py")

ARRAY_ATTRS = frozenset({"tolist", "size", "shape", "item"})
WRAPPER_CALLS = frozenset({"enumerate", "zip", "reversed"})


def _parameters(function: ast.FunctionDef) -> frozenset[str]:
    args = function.args
    names = [arg.arg for arg in
             args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    return frozenset(name for name in names if name != "self")


def _loop_reason(loop: ast.For, params: frozenset[str]) -> str | None:
    """Why this loop's iterable looks array-shaped, or None."""
    iterable = loop.iter
    for node in ast.walk(iterable):
        if isinstance(node, ast.Attribute) and node.attr in ARRAY_ATTRS:
            return f"iterable dereferences .{node.attr}"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("np.nditer", "np.ndenumerate",
                        "numpy.nditer", "numpy.ndenumerate"):
                return f"iterable is {name}"
    candidates = [iterable]
    if (isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in WRAPPER_CALLS):
        candidates = list(iterable.args)
    for candidate in candidates:
        if isinstance(candidate, ast.Name) and candidate.id in params:
            return f"iterates the batch parameter {candidate.id!r}"
    return None


def _is_hot_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in HOT_PATH_FRAGMENTS)


@register
class HotPathPurity(Rule):
    rule_id = "REP004"
    name = "hot-path-vectorization"
    description = ("no per-element Python for loops over array-shaped "
                   "data in hot batch paths")

    def check_module(self, module: Module) -> Iterator[Finding]:
        module_hot = HOT_MODULE_MARKER in module.markers
        path_hot = _is_hot_path(module.path)
        if not module_hot and not path_hot:
            return
        for function in ast.walk(module.tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            hot = module_hot or (
                path_hot
                and function.name.endswith(HOT_METHOD_SUFFIXES)
            )
            if not hot:
                continue
            params = _parameters(function)
            for node in ast.walk(function):
                if not isinstance(node, ast.For):
                    continue
                reason = _loop_reason(node, params)
                if reason is None:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    message=(
                        f"per-element loop in hot path {function.name} "
                        f"({reason}) — batch work belongs in array "
                        f"passes; suppress with a rationale if this is a "
                        f"documented scalar fallback"
                    ),
                    path=module.path, line=node.lineno,
                )
