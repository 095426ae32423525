"""Closure compilation of SM specs: the serve-path fast lane.

The paper frames the interpreter as "mapping the spec rules to code
blocks, leveraging the grammar" (§4.2).  The tree-walking
:class:`~repro.interpreter.evaluator.Evaluator` does that mapping on
every statement of every API call; this module does it **once**, at
spec-registration time, lowering each transition body into a flat
tuple of Python closures.

Lowering rules (each relative to the *owning* spec, whose static
shape is known at compile time):

- name resolution order (scope -> ``id`` -> state read -> enum
  constant -> error) collapses to pre-decided branches: whether an
  identifier is a state variable, is declared SM-typed (and therefore
  wrapped in a :class:`Handle`), or is an enum symbol is decided at
  compile time; only the scope probe stays dynamic;
- state reads/writes go straight to the transaction overlay, skipping
  the per-access ``Handle.spec`` lookup;
- builtins resolve to their implementation functions at compile time;
- assert messages pre-check for interpolation braces;
- cross-SM ``call`` sites pre-decide instantiate-vs-dispatch
  eligibility and re-enter compiled callees when available, falling
  back to the evaluator otherwise.

Compilation is semantics-preserving by construction where it applies
and *falls back* everywhere else: a transition that uses an unknown
construct is skipped (the evaluator remains the reference
implementation), and every compiled transition remembers the body it
was lowered from — if the body has been swapped since (alignment
repairs do this), :meth:`CompiledTransition.fresh` fails and the
caller takes the interpreted path instead of running stale code.
"""

from __future__ import annotations

from ..spec import ast
from .builtins import PURE_BUILTINS
from .errors import CloudError, INTERNAL_FAILURE
from .evaluator import (
    _is_enum_symbol,
    _plain,
    _SafeScope,
    _compare,
    evaluate_defaults,
    Evaluator,
    MAX_CALL_DEPTH,
)
from .machine import Handle


class Runtime:
    """Per-invocation context threaded through compiled closures.

    One is built per API call (it carries that call's transaction) and
    shared by every closure the call reaches, including compiled
    callees of cross-SM calls.
    """

    __slots__ = ("txn", "registry", "specs", "compiled")

    def __init__(self, txn, registry, specs, compiled: "CompiledModule"):
        self.txn = txn
        self.registry = registry
        self.specs = specs
        self.compiled = compiled

    def evaluator(self) -> Evaluator:
        """A reference evaluator over the same transaction (fallback)."""
        return Evaluator(self.txn, self.specs, self.registry)


class _SpecInfo:
    """Static facts about the owning spec and the scope of the
    transition being lowered, shared by its closures."""

    __slots__ = ("spec", "state_names", "sm_states", "handleish",
                 "params", "reads")

    def __init__(self, spec: ast.SMSpec, transition: ast.Transition):
        self.spec = spec
        self.state_names = frozenset(spec.state_names())
        self.sm_states = frozenset(
            decl.name for decl in spec.states if decl.type.kind == "sm"
        )
        # Parameter names that are SM-typed somewhere in this spec's
        # transitions: a string bound under such a name resolves to a
        # live instance's Handle (Evaluator._looks_like_handle).
        self.handleish = frozenset(
            param.name
            for other in spec.transitions.values()
            for param in other.params
            if param.type.kind == "sm"
        )
        # Every caller binds each declared parameter (``None`` when the
        # request omits it), so a parameter is always in scope; a
        # ``read`` variable is in scope only once its read has run.
        self.params = frozenset(param.name for param in transition.params)
        self.reads = frozenset(
            stmt.var for stmt in transition.statements()
            if isinstance(stmt, ast.Read)
        )


def _wrap_dynamic(rt: Runtime, owner: Handle, name: str, value):
    """Handle-wrap a state value whose owner's spec is only known at
    run time (attribute reads on foreign handles)."""
    declared = owner.spec.state_type(name)
    if (
        declared is not None
        and declared.kind == "sm"
        and isinstance(value, str)
        and value
        and rt.txn.instance(value) is not None
    ):
        return Handle(rt.txn, value)
    return value


# ---------------------------------------------------------------------------
# Expressions -> (rt, subject, scope) -> value
#
# ``raw=True`` compiles an expression whose consumer needs no Handle:
# an SM reference read from state or scope comes back as it is stored
# (an id, or the Handle the binder made), so the closure skips the
# instance lookup that wrapping an id costs.  ``_compile_plain``
# builds on it for consumers of the *plain* form (builtin arguments,
# comparisons, truth tests, writes, emits).
# ---------------------------------------------------------------------------

#: Builtins that always return a bool: a truth test of one is the call.
_BOOL_BUILTINS = frozenset((
    "valid_cidr", "valid_ip", "cidr_within", "cidr_overlaps",
    "cidr_overlaps_any", "contains", "exists",
))


def _is_param(ident: str, info: _SpecInfo) -> bool:
    """A declared parameter no ``read`` rebinds: always in scope."""
    return ident in info.params and ident not in info.reads


def _compile_plain(expr: ast.Expr, info: _SpecInfo):
    """``expr`` compiled to return its plain (storable) form.

    Committed state holds only plain values (every write stores one),
    builtins return plain values and maps never hold a Handle, so only
    a value taken from the scope or ``self`` can need ``_plain``; the
    rest skip it, and with it ``_plain``'s copy of a list.
    """
    if isinstance(expr, ast.SelfRef):
        def run_self_id(rt, subject, scope):
            return subject.instance_id

        return run_self_id
    if isinstance(expr, ast.ListExpr):
        item_fs = tuple(_compile_plain(item, info) for item in expr.items)

        def run_list_plain(rt, subject, scope):
            return [item(rt, subject, scope) for item in item_fs]

        return run_list_plain
    if isinstance(expr, ast.Name) and _is_param(expr.ident, info):
        ident = expr.ident

        def run_param_plain(rt, subject, scope):
            value = scope[ident]
            return value if value.__class__ is str else _plain(value)

        return run_param_plain
    expr_f = _compile_expr(expr, info, raw=True)
    if not (isinstance(expr, ast.Name) and expr.ident in info.reads):
        return expr_f

    def run_plained(rt, subject, scope):
        return _plain(expr_f(rt, subject, scope))

    return run_plained


def _compile_expr(expr: ast.Expr, info: _SpecInfo, raw: bool = False):
    if isinstance(expr, ast.Literal):
        value = expr.value

        def run_literal(rt, subject, scope):
            return value

        return run_literal

    if isinstance(expr, ast.SelfRef):
        def run_self(rt, subject, scope):
            return subject

        return run_self

    if isinstance(expr, ast.Name):
        return _compile_name(expr.ident, info, raw)

    if isinstance(expr, ast.Attr):
        return _compile_attr(expr, info, raw)

    if isinstance(expr, ast.ListExpr):
        item_fs = tuple(_compile_expr(item, info) for item in expr.items)

        def run_list(rt, subject, scope):
            return [item(rt, subject, scope) for item in item_fs]

        return run_list

    if isinstance(expr, ast.Func):
        return _compile_func(expr, info)

    raise NotImplementedError(f"expression {type(expr).__name__}")


#: Sentinel for scope probes (a bound value may legitimately be None).
_ABSENT = object()


def _compile_name(ident: str, info: _SpecInfo, raw: bool = False):
    is_id = ident == "id"
    is_state = ident in info.state_names
    wrap = ident in info.sm_states and not raw
    handleish = ident in info.handleish and not raw
    is_enum = _is_enum_symbol(ident)

    if _is_param(ident, info):
        # Always bound: no fallback chain.
        if not handleish:
            def run_param(rt, subject, scope):
                return scope[ident]

            return run_param

        def run_param_ref(rt, subject, scope):
            value = scope[ident]
            if isinstance(value, str) and rt.txn.instance(value) is not None:
                return Handle(rt.txn, value)
            return value

        return run_param_ref

    if is_state and not wrap and not is_id and ident not in info.reads:
        # A state read that no scope variable can shadow.
        def run_state(rt, subject, scope):
            return rt.txn.get_state(subject.instance_id, ident)

        return run_state

    def run_name(rt, subject, scope):
        value = scope.get(ident, _ABSENT)
        if value is not _ABSENT:
            if handleish and isinstance(value, str):
                if rt.txn.instance(value) is not None:
                    return Handle(rt.txn, value)
            return value
        if is_id:
            return subject.instance_id
        if is_state:
            value = rt.txn.get_state(subject.instance_id, ident)
            if (
                wrap
                and isinstance(value, str)
                and value
                and rt.txn.instance(value) is not None
            ):
                return Handle(rt.txn, value)
            return value
        if is_enum:
            return ident
        raise CloudError(INTERNAL_FAILURE, f"unresolved name {ident!r}")

    return run_name


def _compile_attr(expr: ast.Attr, info: _SpecInfo, raw: bool = False):
    attr = expr.attr

    # ``self.x``: the owner is the subject, whose spec is the owning
    # spec — the wrap decision is static, so the read collapses to a
    # transaction-overlay lookup (what Evaluator does dynamically via
    # Handle.get + _wrap_if_sm on the same spec).
    if isinstance(expr.base, ast.SelfRef):
        if attr == "id":
            def run_self_id(rt, subject, scope):
                return subject.instance_id

            return run_self_id
        if raw or attr not in info.sm_states:
            def run_self_raw(rt, subject, scope):
                return rt.txn.get_state(subject.instance_id, attr)

            return run_self_raw

        def run_self_attr(rt, subject, scope):
            value = rt.txn.get_state(subject.instance_id, attr)
            if (
                isinstance(value, str)
                and value
                and rt.txn.instance(value) is not None
            ):
                return Handle(rt.txn, value)
            return value

        return run_self_attr

    base_f = _compile_expr(expr.base, info)
    is_id = attr == "id"

    def run_attr(rt, subject, scope):
        base = base_f(rt, subject, scope)
        if isinstance(base, Handle):
            if is_id:
                value = base.instance_id
            else:
                value = rt.txn.get_state(base.instance_id, attr)
            return value if raw else _wrap_dynamic(rt, base, attr, value)
        if isinstance(base, str):
            if rt.txn.instance(base) is not None:
                return base if is_id else rt.txn.get_state(base, attr)
        if isinstance(base, dict):
            return base.get(attr)
        if base is None:
            return None
        raise CloudError(
            INTERNAL_FAILURE,
            f"cannot read .{attr} of {type(base).__name__}",
        )

    return run_attr


def _compile_func(expr: ast.Func, info: _SpecInfo):
    arg_fs = tuple(_compile_plain(arg, info) for arg in expr.args)
    name = expr.name

    if name == "new_id":
        def run_new_id(rt, subject, scope):
            args = [arg(rt, subject, scope) for arg in arg_fs]
            prefix = str(args[0]) if args else subject.spec.name
            return rt.registry.new_id(prefix)

        return run_new_id

    if name == "now":
        def run_now(rt, subject, scope):
            for arg in arg_fs:
                arg(rt, subject, scope)
            return rt.registry.new_id("tick")

        return run_now

    impl = PURE_BUILTINS.get(name)
    if name == "exists" and len(arg_fs) == 1:
        # exists() needs no plaining: a Handle's id is never None/""
        # (Handle.__eq__ compares ids to strings).
        arg = expr.args[0]
        if isinstance(arg, ast.Name) and _is_param(arg.ident, info):
            ident = arg.ident

            def run_exists_param(rt, subject, scope):
                value = scope[ident]
                return value is not None and value != ""

            return run_exists_param
        arg0 = arg_fs[0]

        def run_exists(rt, subject, scope):
            value = arg0(rt, subject, scope)
            return value is not None and value != ""

        return run_exists
    if impl is not None and len(arg_fs) == 1:
        arg0 = arg_fs[0]

        def run_builtin1(rt, subject, scope):
            return impl(arg0(rt, subject, scope))

        return run_builtin1
    if impl is not None and len(arg_fs) == 2:
        arg0, arg1 = arg_fs

        def run_builtin2(rt, subject, scope):
            return impl(arg0(rt, subject, scope), arg1(rt, subject, scope))

        return run_builtin2
    if impl is not None and len(arg_fs) == 3:
        arg0, arg1, arg2 = arg_fs

        def run_builtin3(rt, subject, scope):
            return impl(
                arg0(rt, subject, scope),
                arg1(rt, subject, scope),
                arg2(rt, subject, scope),
            )

        return run_builtin3

    def run_builtin(rt, subject, scope):
        args = [arg(rt, subject, scope) for arg in arg_fs]
        if impl is None:
            raise CloudError(INTERNAL_FAILURE, f"unknown builtin {name!r}")
        return impl(*args)

    return run_builtin


# ---------------------------------------------------------------------------
# Predicates -> (rt, subject, scope) -> bool
# ---------------------------------------------------------------------------

def _compile_pred(pred: ast.Pred, info: _SpecInfo):
    if isinstance(pred, ast.Truthy):
        expr = pred.expr
        if isinstance(expr, ast.Func) and expr.name in _BOOL_BUILTINS:
            return _compile_func(expr, info)
        # A Handle is truthy and so is its (never empty) id.
        expr_f = _compile_plain(expr, info)

        def run_truthy(rt, subject, scope):
            return bool(expr_f(rt, subject, scope))

        return run_truthy

    if isinstance(pred, ast.Not):
        inner = _compile_pred(pred.pred, info)

        def run_not(rt, subject, scope):
            return not inner(rt, subject, scope)

        return run_not

    if isinstance(pred, ast.And):
        left = _compile_pred(pred.left, info)
        right = _compile_pred(pred.right, info)

        def run_and(rt, subject, scope):
            return left(rt, subject, scope) and right(rt, subject, scope)

        return run_and

    if isinstance(pred, ast.Or):
        left = _compile_pred(pred.left, info)
        right = _compile_pred(pred.right, info)

        def run_or(rt, subject, scope):
            return left(rt, subject, scope) or right(rt, subject, scope)

        return run_or

    if isinstance(pred, ast.Compare):
        left_f = _compile_plain(pred.left, info)
        right_f = _compile_plain(pred.right, info)
        op = pred.op
        if op in ("==", "!=") and isinstance(pred.right, ast.Literal):
            # Comparisons against a literal (status == ACTIVE) fold the
            # constant side at compile time.
            const = _plain(pred.right.value)
            if op == "==":
                def run_eq_const(rt, subject, scope):
                    return left_f(rt, subject, scope) == const

                return run_eq_const

            def run_ne_const(rt, subject, scope):
                return left_f(rt, subject, scope) != const

            return run_ne_const

        def run_cmp(rt, subject, scope):
            return _compare(
                op, left_f(rt, subject, scope), right_f(rt, subject, scope)
            )

        return run_cmp

    raise NotImplementedError(f"predicate {type(pred).__name__}")


# ---------------------------------------------------------------------------
# Statements -> (rt, subject, scope, payload, depth) -> None
# ---------------------------------------------------------------------------

def _compile_block(stmts, info: _SpecInfo):
    """Compile a statement list, fusing runs of consecutive plain reads.

    Describe bodies are dominated by back-to-back ``read`` statements;
    fusing a run into one step fetches the subject's state mapping
    once (:meth:`Transaction.state_of`) and pays one closure call for
    the whole run instead of one per read.
    """
    steps = []
    pending: list[tuple[str, str]] = []  # (state, var) plain-read run

    def flush():
        if not pending:
            return
        if len(pending) == 1:
            name, var = pending[0]
            steps.append(_compile_read(ast.Read(var=var, state=name), info))
        else:
            steps.append(_fused_reads(tuple(pending)))
        pending.clear()

    for stmt in stmts:
        if (
            isinstance(stmt, ast.Read)
            and stmt.state != "id"
            and stmt.state not in info.sm_states
        ):
            pending.append((stmt.state, stmt.var))
            continue
        flush()
        steps.append(_compile_stmt(stmt, info))
    flush()
    return tuple(steps)


def _fused_reads(pairs: tuple[tuple[str, str], ...]):
    def run_reads(rt, subject, scope, payload, depth):
        state = rt.txn.state_of(subject.instance_id)
        get = state.get
        if depth == 0:
            for name, var in pairs:
                value = get(name)
                scope[var] = value
                payload[var] = value
        else:
            for name, var in pairs:
                scope[var] = get(name)

    return run_reads


def _compile_stmt(stmt: ast.Stmt, info: _SpecInfo):
    if isinstance(stmt, ast.Read):
        return _compile_read(stmt, info)
    if isinstance(stmt, ast.Write):
        return _compile_write(stmt, info)
    if isinstance(stmt, ast.Emit):
        return _compile_emit(stmt, info)
    if isinstance(stmt, ast.Assert):
        return _compile_assert(stmt, info)
    if isinstance(stmt, ast.If):
        return _compile_if(stmt, info)
    if isinstance(stmt, ast.Call):
        return _compile_call(stmt, info)
    raise NotImplementedError(f"statement {type(stmt).__name__}")


def _compile_read(stmt: ast.Read, info: _SpecInfo):
    name, var = stmt.state, stmt.var

    if name == "id":
        def run_read_id(rt, subject, scope, payload, depth):
            value = subject.instance_id
            scope[var] = value
            if depth == 0:
                payload[var] = value

        return run_read_id

    if name not in info.sm_states:
        # Committed state only ever holds plain values (defaults are
        # literals; every write stores a plain value), so a read of a
        # non-SM state needs no wrapping and no re-plaining.
        def run_read_plain(rt, subject, scope, payload, depth):
            value = rt.txn.get_state(subject.instance_id, name)
            scope[var] = value
            if depth == 0:
                payload[var] = value

        return run_read_plain

    def run_read(rt, subject, scope, payload, depth):
        raw = rt.txn.get_state(subject.instance_id, name)
        if raw and isinstance(raw, str) and rt.txn.instance(raw) is not None:
            value = Handle(rt.txn, raw)
        else:
            value = raw
        scope[var] = value
        if depth == 0:
            # ``_plain`` of the wrapped handle is exactly the raw id.
            payload[var] = raw

    return run_read


def _compile_write(stmt: ast.Write, info: _SpecInfo):
    name = stmt.state
    value_f = _compile_plain(stmt.value, info)

    def run_write(rt, subject, scope, payload, depth):
        rt.txn.set_state(subject.instance_id, name, value_f(rt, subject, scope))

    return run_write


def _compile_emit(stmt: ast.Emit, info: _SpecInfo):
    key = stmt.key
    value_f = _compile_plain(stmt.value, info)

    def run_emit(rt, subject, scope, payload, depth):
        value = value_f(rt, subject, scope)
        if depth == 0:
            payload[key] = value

    return run_emit


def _compile_assert(stmt: ast.Assert, info: _SpecInfo):
    # ``assert not p`` tests ``p`` itself: one closure call fewer.
    negated = isinstance(stmt.pred, ast.Not)
    pred_f = _compile_pred(stmt.pred.pred if negated else stmt.pred, info)
    code = stmt.error_code
    template = stmt.message
    interpolates = bool(template) and "{" in template

    def fail(subject, scope):
        message = template
        if interpolates:
            try:
                message = template.format_map(_SafeScope(subject, scope))
            except Exception:
                message = template
        raise CloudError(code, message)

    if negated:
        def run_assert_not(rt, subject, scope, payload, depth):
            if pred_f(rt, subject, scope):
                fail(subject, scope)

        return run_assert_not

    def run_assert(rt, subject, scope, payload, depth):
        if not pred_f(rt, subject, scope):
            fail(subject, scope)

    return run_assert


def _compile_if(stmt: ast.If, info: _SpecInfo):
    pred_f = _compile_pred(stmt.pred, info)
    then_steps = _compile_block(stmt.then, info)
    else_steps = _compile_block(stmt.orelse, info)

    def run_if(rt, subject, scope, payload, depth):
        branch = then_steps if pred_f(rt, subject, scope) else else_steps
        for step in branch:
            step(rt, subject, scope, payload, depth)

    return run_if


class _CallBinding:
    """One call site's binding to one callee transition, made once.

    Holds what every call through the site needs about the callee:
    the transition, its compiled form (or ``None``: evaluator) and its
    parameter names.  :meth:`current` says whether the binding still
    matches the callee spec and the runtime's compiled module; a
    replaced or re-bodied transition re-binds.
    """

    __slots__ = ("spec", "transition", "params", "module", "compiled",
                 "names")

    def __init__(self, spec: ast.SMSpec, transition: ast.Transition,
                 module: "CompiledModule"):
        self.spec = spec
        self.transition = transition
        self.params = transition.params
        self.module = module
        compiled = module.lookup(spec.name, transition.name)
        self.compiled = (
            compiled if compiled is not None and compiled.fresh(transition)
            else None
        )
        self.names = tuple(param.name for param in transition.params)

    def current(self, spec: ast.SMSpec, transition, module) -> bool:
        compiled = self.compiled
        return (
            spec is self.spec
            and transition is self.transition
            and module is self.module
            and transition.params is self.params
            and (compiled is None or compiled.fresh(transition))
        )


def _compile_call(stmt: ast.Call, info: _SpecInfo):
    arg_fs = tuple(_compile_expr(arg, info) for arg in stmt.args)
    transition_name = stmt.transition

    # Instantiate-eligibility (Evaluator._exec_call): a Name target that
    # is not a state variable of the owning spec but names a known SM
    # type creates a fresh instance — only the scope probe is dynamic.
    target_ident = (
        stmt.target.ident if isinstance(stmt.target, ast.Name) else None
    )
    may_instantiate = (
        target_ident is not None
        and target_ident != "id"
        and target_ident not in info.state_names
    )
    # The target only has to name an instance: read it raw (no
    # wrapping lookup) and resolve it once below.
    target_f = _compile_expr(stmt.target, info, raw=True)
    rendered_target = stmt.target.render()
    binding = None

    def run_call(rt, subject, scope, payload, depth):
        nonlocal binding
        args = [arg(rt, subject, scope) for arg in arg_fs]
        txn = rt.txn
        if (
            may_instantiate
            and target_ident not in scope
            and target_ident in rt.specs
        ):
            target = _instantiate(rt, target_ident, subject)
            target_id = target.instance_id
            callee_spec = rt.specs[target_ident]
        else:
            value = target_f(rt, subject, scope)
            if isinstance(value, Handle):
                target_id = value.instance_id
                instance = txn.instance(target_id)
                if instance is None:
                    raise CloudError(
                        INTERNAL_FAILURE, f"dangling handle {target_id}"
                    )
                target = value
            elif isinstance(value, str):
                instance = txn.instance(value)
                if instance is None:
                    raise CloudError(
                        INTERNAL_FAILURE, f"call target {value!r} not found"
                    )
                target_id = value
                target = Handle(txn, value)
            else:
                raise CloudError(
                    INTERNAL_FAILURE,
                    f"call target {rendered_target} is not an SM reference",
                )
            callee_spec = instance.spec
        callee = callee_spec.transitions.get(transition_name)
        if callee is None:
            raise CloudError(
                INTERNAL_FAILURE,
                f"no transition {transition_name} on SM {callee_spec.name}",
            )
        bound = binding
        if bound is None or not bound.current(callee_spec, callee, rt.compiled):
            bound = binding = _CallBinding(callee_spec, callee, rt.compiled)
        names = bound.names
        if len(args) >= len(names):
            scope_args = dict(zip(names, args))
        else:
            scope_args = dict.fromkeys(names)
            scope_args.update(zip(names, args))
        if bound.compiled is not None:
            bound.compiled.run(rt, target, scope_args, depth + 1)
        else:
            rt.evaluator().run_transition(
                target, callee, scope_args, depth=depth + 1
            )
        if callee.category == "destroy":
            txn.mark_deleted(target_id)

    return run_call


def _instantiate(rt: Runtime, sm_name: str, parent: Handle) -> Handle:
    spec = rt.specs[sm_name]
    compiled_spec = rt.compiled.specs.get(sm_name)
    if compiled_spec is not None and compiled_spec.spec is spec:
        defaults = compiled_spec.defaults()
    else:
        defaults = evaluate_defaults(spec)
    parent_id = parent.instance_id if spec.parent else ""
    instance = rt.registry.create(spec, defaults, parent_id=parent_id)
    rt.txn.create(instance)
    return Handle(rt.txn, instance.id)


# ---------------------------------------------------------------------------
# Effect analysis
# ---------------------------------------------------------------------------

def _expr_has_effects(expr: ast.Expr) -> bool:
    """``new_id``/``now`` advance registry counters — the only way an
    expression can have an effect."""
    if isinstance(expr, ast.Func):
        if expr.name in ("new_id", "now"):
            return True
        return any(_expr_has_effects(arg) for arg in expr.args)
    if isinstance(expr, ast.Attr):
        return _expr_has_effects(expr.base)
    if isinstance(expr, ast.ListExpr):
        return any(_expr_has_effects(item) for item in expr.items)
    return False


def _pred_has_effects(pred: ast.Pred) -> bool:
    if isinstance(pred, ast.Truthy):
        return _expr_has_effects(pred.expr)
    if isinstance(pred, ast.Not):
        return _pred_has_effects(pred.pred)
    if isinstance(pred, (ast.And, ast.Or)):
        return _pred_has_effects(pred.left) or _pred_has_effects(pred.right)
    if isinstance(pred, ast.Compare):
        return _expr_has_effects(pred.left) or _expr_has_effects(pred.right)
    return True  # unknown predicate: assume the worst


def _body_has_effects(stmts) -> bool:
    """True when executing ``stmts`` could mutate registry or overlay.

    Writes and cross-SM calls are effects; so is any expression using
    ``new_id``/``now``.  Reads, asserts and emits only touch the scope
    and the response payload.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.Write, ast.Call)):
            return True
        if isinstance(stmt, ast.Read):
            continue
        if isinstance(stmt, ast.Assert):
            if _pred_has_effects(stmt.pred):
                return True
        elif isinstance(stmt, ast.Emit):
            if _expr_has_effects(stmt.value):
                return True
        elif isinstance(stmt, ast.If):
            if (
                _pred_has_effects(stmt.pred)
                or _body_has_effects(stmt.then)
                or _body_has_effects(stmt.orelse)
            ):
                return True
        else:
            return True  # unknown statement: assume the worst
    return False


# ---------------------------------------------------------------------------
# Compiled containers
# ---------------------------------------------------------------------------

class CompiledTransition:
    """One transition body lowered to a flat tuple of step closures."""

    __slots__ = (
        "name", "category", "pure", "_steps", "_source", "_body",
        "_params", "_stub",
    )

    def __init__(self, transition: ast.Transition, steps):
        self.name = transition.name
        self.category = transition.category
        self._steps = tuple(steps)
        self._source = transition
        self._body = transition.body
        self._params = transition.params
        self._stub = transition.is_stub
        #: Statically effect-free: running this transition cannot touch
        #: registry or overlay state, so the dispatcher may skip the
        #: transaction entirely (describe fast route).
        self.pure = not _body_has_effects(transition.body)

    def fresh(self, transition: ast.Transition) -> bool:
        """True while ``transition`` still matches what was compiled.

        Alignment repairs swap transition bodies in place; a stale
        compiled form must not run, so callers fall back to the
        evaluator whenever this returns False.
        """
        return (
            transition is self._source
            and transition.body is self._body
            and transition.params is self._params
            and transition.is_stub == self._stub
        )

    def run(self, rt: Runtime, subject: Handle, args: dict,
            depth: int = 0, collect: dict | None = None) -> dict:
        if depth > MAX_CALL_DEPTH:
            raise CloudError(
                INTERNAL_FAILURE, "cross-SM call depth exceeded"
            )
        if self._stub:
            raise CloudError(
                INTERNAL_FAILURE,
                f"transition {self.name} is an unlinked stub",
            )
        payload: dict = collect if collect is not None else {}
        # Both call sites (dispatch and compiled cross-SM calls) build
        # ``args`` fresh per invocation and never read it afterwards,
        # so the scope may alias it instead of copying.
        scope = args
        for step in self._steps:
            step(rt, subject, scope, payload, depth)
        return payload


#: Tags for the per-spec defaults prototype: which entries must be
#: rebuilt fresh per instance (shared mutables would alias state).
_SCALAR, _LIST, _MAP = 0, 1, 2


class CompiledSpec:
    """Compiled transitions plus a precomputed defaults prototype."""

    __slots__ = ("spec", "transitions", "_default_items")

    def __init__(self, spec: ast.SMSpec,
                 transitions: dict[str, CompiledTransition]):
        self.spec = spec
        self.transitions = transitions
        items = []
        for name, value in evaluate_defaults(spec).items():
            if isinstance(value, list):
                kind = _LIST
            elif isinstance(value, dict):
                kind = _MAP
            else:
                kind = _SCALAR
            items.append((name, value, kind))
        self._default_items = tuple(items)

    def defaults(self) -> dict[str, object]:
        """Initial state for a fresh instance (mutables rebuilt)."""
        out: dict[str, object] = {}
        for name, value, kind in self._default_items:
            if kind == _LIST:
                value = list(value)
            elif kind == _MAP:
                value = dict(value)
            out[name] = value
        return out


class CompiledModule:
    """Every compilable transition of a module, lowered once."""

    __slots__ = ("module", "specs", "skipped")

    def __init__(self, module: ast.SpecModule,
                 specs: dict[str, CompiledSpec], skipped: list[str]):
        self.module = module
        self.specs = specs
        #: ``sm.transition`` names that could not be lowered and run on
        #: the evaluator instead (diagnosable, never silent breakage).
        self.skipped = skipped

    def lookup(self, sm_name: str,
               transition_name: str) -> CompiledTransition | None:
        spec = self.specs.get(sm_name)
        if spec is None:
            return None
        return spec.transitions.get(transition_name)


def compile_module(module: ast.SpecModule) -> CompiledModule:
    """Lower every transition of ``module`` that the compiler covers.

    Unknown constructs are not errors: the affected transition is
    recorded in ``skipped`` and keeps running on the evaluator.
    """
    specs: dict[str, CompiledSpec] = {}
    skipped: list[str] = []
    for sm_name, spec in module.machines.items():
        transitions: dict[str, CompiledTransition] = {}
        for t_name, transition in spec.transitions.items():
            try:
                steps = _compile_block(
                    transition.body, _SpecInfo(spec, transition)
                )
            except NotImplementedError:
                skipped.append(f"{sm_name}.{t_name}")
                continue
            transitions[t_name] = CompiledTransition(transition, steps)
        specs[sm_name] = CompiledSpec(spec, transitions)
    return CompiledModule(module, specs, skipped)
