"""Numeric-determinism rules: reduction-order and environment hazards.

Float addition is not associative, so any reduction whose *iteration
order* is not pinned can produce run-to-run differences large enough
to flip a classifier comparison.  Simulation-domain packages (the ones
whose runs must replay bit-identically) therefore must not:

- ``numeric-set-reduction``: ``sum()``/``math.fsum()``/
  ``np.add.reduce()`` over a ``set``/``frozenset`` (literal,
  comprehension, constructor call, or a local name assigned one), or a
  ``for`` loop over a set that accumulates with ``+=`` — set iteration
  order depends on insertion history and hash seeding;
- ``numeric-dict-reduction``: the same reductions over
  ``.keys()/.values()/.items()`` or a dict-typed name — insertion
  order is deterministic only when every insertion site is, which a
  reader cannot check locally, so pin the order (``sorted``) or
  justify with a suppression;
- ``numeric-env-branch``: branching on ``os.environ``/``os.getenv`` —
  results silently depend on ambient process state instead of the
  run's declared configuration.

Global ``np.random.*`` use — the numpy half of the unseeded-RNG
hazard — is flagged by the extended determinism family
(:mod:`repro.devtools.determinism`), not duplicated here.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Union

from repro.devtools.config import LintConfig
from repro.devtools.findings import Finding, register_rule
from repro.devtools.modules import ModuleInfo
from repro.devtools.symbols import call_path

__all__ = [
    "SET_REDUCTION",
    "DICT_REDUCTION",
    "ENV_BRANCH",
    "check_numeric",
]

SET_REDUCTION = register_rule(
    "numeric-set-reduction",
    "numeric",
    "error",
    "float reduction over an unordered set/frozenset",
)

DICT_REDUCTION = register_rule(
    "numeric-dict-reduction",
    "numeric",
    "warning",
    "reduction over dict views relies on every insertion site being ordered",
)

ENV_BRANCH = register_rule(
    "numeric-env-branch",
    "numeric",
    "error",
    "simulation-domain branch on os.environ state",
)

#: Reduction entry points (by trailing call path): built-in ``sum``,
#: ``math.fsum``, and ``np.add.reduce``/``numpy.add.reduce``.
_REDUCERS = {("sum",), ("fsum",), ("math", "fsum"), ("add", "reduce")}

_DICT_VIEWS = {"keys", "values", "items"}


def _is_reducer(func: ast.expr) -> bool:
    path = call_path(func)
    if path is None:
        return False
    return tuple(path) in _REDUCERS or tuple(path[-2:]) in {("add", "reduce")}


def _is_set_expr(expr: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        path = call_path(expr.func)
        if path is not None and path[-1] in {"set", "frozenset"}:
            return True
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra keeps the hazard: `a | b`, `a - b`, ...
        return _is_set_expr(expr.left, set_names) or _is_set_expr(
            expr.right, set_names
        )
    return False


def _is_dict_view(expr: ast.expr, dict_names: Set[str]) -> bool:
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr in _DICT_VIEWS and not expr.args:
            return True
    if isinstance(expr, ast.Name):
        return expr.id in dict_names
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return True
    return False


def _iterable_of(expr: ast.expr) -> ast.expr:
    """The thing actually iterated: unwrap one generator/comprehension."""
    if isinstance(expr, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        if expr.generators:
            return expr.generators[0].iter
    return expr


def _accumulates(body: List[ast.stmt]) -> bool:
    """Whether a loop body grows a running total with ``+=``."""
    for stmt in body:
        for child in ast.walk(stmt):
            if isinstance(child, ast.AugAssign) and isinstance(
                child.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
    return False


class _NumericVisitor(ast.NodeVisitor):
    """Per-module scan; tracks set/dict-typed names per scope."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self.findings: List[Finding] = []
        # Name-type tracking: a stack of (set_names, dict_names) scopes.
        self._set_scopes: List[Set[str]] = [set()]
        self._dict_scopes: List[Set[str]] = [set()]
        self._os_names: Set[str] = set()
        self._environ_names: Set[str] = set()

    # -- imports ----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "os":
                self._os_names.add(alias.asname or "os")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "os":
            for alias in node.names:
                if alias.name == "environ":
                    self._environ_names.add(alias.asname or "environ")
                elif alias.name == "getenv":
                    self._environ_names.add(alias.asname or "getenv")
        self.generic_visit(node)

    # -- scope handling ---------------------------------------------------
    def _set_names(self) -> Set[str]:
        return self._set_scopes[-1]

    def _dict_names(self) -> Set[str]:
        return self._dict_scopes[-1]

    def _visit_scope(self, node: ast.AST) -> None:
        # Functions see module-level set/dict names read-only.
        self._set_scopes.append(set(self._set_scopes[0]))
        self._dict_scopes.append(set(self._dict_scopes[0]))
        self.generic_visit(node)
        self._set_scopes.pop()
        self._dict_scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = _visit_scope

    # -- dataflow: name typing --------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _is_set_expr(node.value, self._set_names()):
                self._set_names().add(name)
                self._dict_names().discard(name)
            elif _is_dict_view(node.value, set()) and isinstance(
                node.value, (ast.Dict, ast.DictComp)
            ):
                self._dict_names().add(name)
                self._set_names().discard(name)
            elif isinstance(node.value, ast.Call) and (
                call_path(node.value.func) or [None]
            )[-1] == "dict":
                self._dict_names().add(name)
                self._set_names().discard(name)
            else:
                self._set_names().discard(name)
                self._dict_names().discard(name)

    # -- findings ---------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=str(self.info.path),
                line=node.lineno,
                rule=rule,
                module=self.info.name,
                message=message,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        if _is_reducer(node.func) and node.args:
            iterable = _iterable_of(node.args[0])
            if _is_set_expr(iterable, self._set_names()):
                self._flag(
                    node,
                    SET_REDUCTION,
                    "reduction over a set iterates in hash order; "
                    "sort first (e.g. sum(sorted(...)))",
                )
            elif _is_dict_view(iterable, self._dict_names()):
                self._flag(
                    node,
                    DICT_REDUCTION,
                    "reduction over a dict view depends on insertion "
                    "order; iterate sorted keys or justify why every "
                    "insertion site is deterministic",
                )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _accumulates(node.body):
            if _is_set_expr(node.iter, self._set_names()):
                self._flag(
                    node,
                    SET_REDUCTION,
                    "loop accumulates floats over a set; iteration "
                    "order is not reproducible — sort first",
                )
            elif _is_dict_view(node.iter, self._dict_names()):
                self._flag(
                    node,
                    DICT_REDUCTION,
                    "loop accumulates over a dict view; pin the order "
                    "(sorted keys) or justify the insertion order",
                )
        self.generic_visit(node)

    # -- environment branches ---------------------------------------------
    def _mentions_environ(self, expr: ast.expr) -> bool:
        for child in ast.walk(expr):
            if isinstance(child, ast.Attribute):
                path = call_path(child)
                if (
                    path is not None
                    and len(path) >= 2
                    and path[0] in self._os_names
                    and path[1] in {"environ", "getenv"}
                ):
                    return True
            elif isinstance(child, ast.Name) and child.id in self._environ_names:
                return True
        return False

    def _check_branch(
        self, node: Union[ast.If, ast.While, ast.IfExp, ast.Assert]
    ) -> None:
        if self._mentions_environ(node.test):
            self._flag(
                node,
                ENV_BRANCH,
                "branch depends on os.environ; simulation behaviour "
                "must come from explicit configuration, not ambient "
                "process state",
            )
        self.generic_visit(node)

    visit_If = _check_branch
    visit_While = _check_branch
    visit_IfExp = _check_branch


def check_numeric(
    modules: Dict[str, ModuleInfo], config: LintConfig
) -> List[Finding]:
    """Run the numeric-determinism family over simulation-domain modules."""
    findings: List[Finding] = []
    for info in modules.values():
        parts = info.name.split(".")
        package = parts[1] if len(parts) > 1 else ""
        if package not in config.sim_domain_packages:
            continue
        if info.name in config.determinism_exempt:
            continue
        if info.tree is None:
            continue
        visitor = _NumericVisitor(info)
        visitor.visit(info.tree)
        findings.extend(visitor.findings)
    return findings
