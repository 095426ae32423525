"""Transition-body evaluation: the heart of the emulator framework.

The interpreter maps the grammar's four primitives to state effects
(§4.2: "It maps the spec rules to code blocks, leveraging the
grammar").  Evaluation happens inside a transaction; a failed assert
raises :class:`CloudError`, which the emulator turns into a failed API
response with nothing committed.
"""

from __future__ import annotations

from ..spec import ast
from .builtins import PURE_BUILTINS
from .errors import CloudError, INTERNAL_FAILURE
from .machine import Handle, Transaction

#: Hard bound on cross-SM call nesting.  Generated specs could contain
#: mutually recursive calls; the framework fails them deterministically
#: instead of overflowing the stack.
MAX_CALL_DEPTH = 16


def _is_enum_symbol(name: str) -> bool:
    return name.replace("_", "").isupper()


def _truthy(value: object) -> bool:
    if isinstance(value, Handle):
        return True
    return bool(value)


def _plain(value: object) -> object:
    """Convert a runtime value to its storable/response form."""
    if value is None:
        return value
    cls = value.__class__
    if cls is str or cls is int or cls is bool or cls is float:
        return value  # the overwhelmingly common case — already plain
    if isinstance(value, Handle):
        return value.instance_id
    if isinstance(value, list):
        return [
            item if item.__class__ is str else _plain(item) for item in value
        ]
    return value


#: Sentinel distinguishing "state variable absent" from a None value.
_MISSING = object()


class Evaluator:
    """Evaluates transitions of one spec module against a transaction."""

    def __init__(self, txn: Transaction, specs: dict[str, ast.SMSpec], registry):
        self.txn = txn
        self.specs = specs
        self.registry = registry

    # -- public entry ---------------------------------------------------------

    def run_transition(
        self,
        subject: Handle,
        transition: ast.Transition,
        args: dict[str, object],
        depth: int = 0,
        collect: dict | None = None,
    ) -> dict:
        """Execute ``transition`` on ``subject``; return the response payload."""
        if depth > MAX_CALL_DEPTH:
            raise CloudError(INTERNAL_FAILURE, "cross-SM call depth exceeded")
        if transition.is_stub:
            raise CloudError(
                INTERNAL_FAILURE,
                f"transition {transition.name} is an unlinked stub",
            )
        payload: dict = collect if collect is not None else {}
        scope: dict[str, object] = dict(args)
        for stmt in transition.body:
            self._exec(stmt, subject, scope, payload, depth)
        return payload

    # -- statements -------------------------------------------------------------

    def _exec(
        self,
        stmt: ast.Stmt,
        subject: Handle,
        scope: dict[str, object],
        payload: dict,
        depth: int,
    ) -> None:
        if isinstance(stmt, ast.Read):
            value = self._read_state(subject, stmt.state)
            scope[stmt.var] = value
            if depth == 0:
                payload[stmt.var] = _plain(value)
            return
        if isinstance(stmt, ast.Write):
            value = self._eval(stmt.value, subject, scope)
            subject.set(stmt.state, _plain(value))
            return
        if isinstance(stmt, ast.Emit):
            value = self._eval(stmt.value, subject, scope)
            if depth == 0:
                payload[stmt.key] = _plain(value)
            return
        if isinstance(stmt, ast.Assert):
            if not self._eval_pred(stmt.pred, subject, scope):
                message = self._interpolate(stmt.message, subject, scope)
                raise CloudError(stmt.error_code, message)
            return
        if isinstance(stmt, ast.If):
            branch = (
                stmt.then
                if self._eval_pred(stmt.pred, subject, scope)
                else stmt.orelse
            )
            for inner in branch:
                self._exec(inner, subject, scope, payload, depth)
            return
        if isinstance(stmt, ast.Call):
            self._exec_call(stmt, subject, scope, depth)
            return
        raise CloudError(INTERNAL_FAILURE, f"unknown statement {type(stmt).__name__}")

    def _exec_call(
        self, stmt: ast.Call, subject: Handle, scope: dict[str, object], depth: int
    ) -> None:
        args = [self._eval(arg, subject, scope) for arg in stmt.args]
        # A call target naming an SM *type* creates a new instance of it
        # and runs the named transition on the fresh machine (how
        # CreateDefaultVPC can call CreateSubnet, §4.2).
        if (
            isinstance(stmt.target, ast.Name)
            and stmt.target.ident not in scope
            and self._read_state_quiet(subject, stmt.target.ident) is _MISSING
            and stmt.target.ident in self.specs
        ):
            target = self._instantiate(stmt.target.ident, parent=subject)
        else:
            value = self._eval(stmt.target, subject, scope)
            if not isinstance(value, Handle):
                if isinstance(value, str):
                    instance = self.txn.instance(value)
                    if instance is None:
                        raise CloudError(
                            INTERNAL_FAILURE, f"call target {value!r} not found"
                        )
                    value = Handle(self.txn, value)
                else:
                    raise CloudError(
                        INTERNAL_FAILURE,
                        f"call target {stmt.target.render()} is not an SM reference",
                    )
            target = value
        callee_spec = target.spec
        callee = callee_spec.transitions.get(stmt.transition)
        if callee is None:
            raise CloudError(
                INTERNAL_FAILURE,
                f"no transition {stmt.transition} on SM {callee_spec.name}",
            )
        bound = {
            param.name: args[index] if index < len(args) else None
            for index, param in enumerate(callee.params)
        }
        self.run_transition(target, callee, bound, depth=depth + 1)
        if callee.category == "destroy":
            self.txn.mark_deleted(target.id)

    def _instantiate(self, sm_name: str, parent: Handle | None = None) -> Handle:
        spec = self.specs[sm_name]
        defaults = evaluate_defaults(spec)
        parent_id = parent.id if parent is not None and spec.parent else ""
        instance = self.registry.create(spec, defaults, parent_id=parent_id)
        self.txn.create(instance)
        return Handle(self.txn, instance.id)

    # -- expressions ------------------------------------------------------------

    def _read_state(self, subject: Handle, name: str) -> object:
        value = subject.get(name)
        return self._wrap_if_sm(subject, name, value)

    def _read_state_quiet(self, subject: Handle, name: str) -> object:
        if name in subject.spec.state_names() or name == "id":
            return subject.get(name)
        return _MISSING

    def _wrap_if_sm(self, subject: Handle, name: str, value: object) -> object:
        declared = subject.spec.state_type(name)
        if (
            declared is not None
            and declared.kind == "sm"
            and isinstance(value, str)
            and value
        ):
            if self.txn.instance(value) is not None:
                return Handle(self.txn, value)
        return value

    def _eval(self, expr: ast.Expr, subject: Handle, scope: dict[str, object]):
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.SelfRef):
            return subject
        if isinstance(expr, ast.Name):
            ident = expr.ident
            if ident in scope:
                value = scope[ident]
                if isinstance(value, str) and self._looks_like_handle(subject, ident):
                    resolved = self.txn.instance(value)
                    if resolved is not None:
                        return Handle(self.txn, value)
                return value
            if ident == "id":
                return subject.id
            quiet = self._read_state_quiet(subject, ident)
            if quiet is not _MISSING:
                return self._wrap_if_sm(subject, ident, quiet)
            if _is_enum_symbol(ident):
                return ident
            raise CloudError(INTERNAL_FAILURE, f"unresolved name {ident!r}")
        if isinstance(expr, ast.Attr):
            base = self._eval(expr.base, subject, scope)
            if isinstance(base, Handle):
                value = base.get(expr.attr)
                return self._wrap_if_sm(base, expr.attr, value)
            if isinstance(base, str):
                instance = self.txn.instance(base)
                if instance is not None:
                    return Handle(self.txn, base).get(expr.attr)
            if isinstance(base, dict):
                return base.get(expr.attr)
            if base is None:
                return None
            raise CloudError(
                INTERNAL_FAILURE, f"cannot read .{expr.attr} of {type(base).__name__}"
            )
        if isinstance(expr, ast.ListExpr):
            return [self._eval(item, subject, scope) for item in expr.items]
        if isinstance(expr, ast.Func):
            return self._eval_func(expr, subject, scope)
        raise CloudError(INTERNAL_FAILURE, f"unknown expression {type(expr).__name__}")

    def _looks_like_handle(self, subject: Handle, name: str) -> bool:
        for transition in subject.spec.transitions.values():
            for param in transition.params:
                if param.name == name and param.type.kind == "sm":
                    return True
        return False

    def _eval_func(self, expr: ast.Func, subject: Handle, scope: dict[str, object]):
        args = [_plain(self._eval(arg, subject, scope)) for arg in expr.args]
        if expr.name == "new_id":
            prefix = str(args[0]) if args else subject.spec.name
            return self.registry.new_id(prefix)
        if expr.name == "now":
            return self.registry.new_id("tick")
        impl = PURE_BUILTINS.get(expr.name)
        if impl is None:
            raise CloudError(INTERNAL_FAILURE, f"unknown builtin {expr.name!r}")
        return impl(*args)

    # -- predicates ----------------------------------------------------------------

    def _eval_pred(
        self, pred: ast.Pred, subject: Handle, scope: dict[str, object]
    ) -> bool:
        if isinstance(pred, ast.Truthy):
            return _truthy(self._eval(pred.expr, subject, scope))
        if isinstance(pred, ast.Not):
            return not self._eval_pred(pred.pred, subject, scope)
        if isinstance(pred, ast.And):
            return self._eval_pred(pred.left, subject, scope) and self._eval_pred(
                pred.right, subject, scope
            )
        if isinstance(pred, ast.Or):
            return self._eval_pred(pred.left, subject, scope) or self._eval_pred(
                pred.right, subject, scope
            )
        if isinstance(pred, ast.Compare):
            left = _plain(self._eval(pred.left, subject, scope))
            right = _plain(self._eval(pred.right, subject, scope))
            return _compare(pred.op, left, right)
        raise CloudError(INTERNAL_FAILURE, f"unknown predicate {type(pred).__name__}")

    def _interpolate(
        self, template: str, subject: Handle, scope: dict[str, object]
    ) -> str:
        if not template or "{" not in template:
            return template
        values = _SafeScope(subject, scope)
        try:
            return template.format_map(values)
        except Exception:
            return template


class _SafeScope:
    """Mapping for message templates: scope, then state, then the name."""

    def __init__(self, subject: Handle, scope: dict[str, object]):
        self.subject = subject
        self.scope = scope

    def __getitem__(self, key: str) -> object:
        if key in self.scope:
            return _plain(self.scope[key])
        if key == "id":
            return self.subject.id
        if key in self.subject.spec.state_names():
            return _plain(self.subject.get(key))
        return "{" + key + "}"


def _compare(op: str, left: object, right: object) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "in":
        if right is None:
            return False
        return left in right if isinstance(right, (list, tuple, set, str, dict)) else False
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:
        return False
    raise CloudError(INTERNAL_FAILURE, f"unknown comparison {op!r}")


def evaluate_defaults(spec: ast.SMSpec) -> dict[str, object]:
    """Initial state for a fresh instance of ``spec``.

    Defaults must be literals or enum symbols; anything else initializes
    to null, matching how cloud attributes are absent until set.
    """
    defaults: dict[str, object] = {}
    for decl in spec.states:
        value: object = None
        if isinstance(decl.default, ast.Literal):
            value = decl.default.value
        elif isinstance(decl.default, ast.Name):
            value = decl.default.ident
        elif isinstance(decl.default, ast.ListExpr) and not decl.default.items:
            value = []
        if value is None and decl.type.kind == "list":
            value = []
        if value is None and decl.type.kind == "map":
            value = {}
        defaults[decl.name] = value
    return defaults
