"""Intraprocedural buffer-ownership dataflow: aliases, mutations, escapes.

PR 6 made the hot path zero-copy end-to-end: string columns are
``np.shares_memory`` views into the partition's CSS, fixed-width columns
alias the conversion output buffer, and ``slice_buffers`` returns pure
views.  The price of that layout is an aliasing discipline — one in-place
write through any view silently corrupts every sibling column — and the
discipline is exactly what this module proves.

The analysis is intraprocedural and name-based.  For every function it
tracks which local names are **borrowed** — aliases of a shared buffer
the function does not own — and emits an event stream the two dataflow
checkers (:mod:`repro.analysis.checkers.buffer_mutation`,
:mod:`repro.analysis.checkers.buffer_escape`) turn into PPR6xx
diagnostics.

Borrows enter a function through

* calls to registered view-returning functions (:data:`BORROW_CALLS` —
  ``slice_buffers``, ``take_buffers``, ``column_view``,
  ``np.frombuffer``, …) or to same-module functions marked
  ``# parlint: returns-borrowed``;
* reads of registered buffer attributes (:data:`BORROWED_ATTRS` —
  ``.values``, ``.offsets``, ``.validity``, ``.data``, ``.css``,
  ``.buf``);
* parameters annotated ``# parlint: borrowed[=names]``;
* ``np.ndarray(..., buffer=…)`` / ``memoryview(...)`` constructions.

and propagate through plain assignment, basic (slice-only) subscripting
— NumPy's view rule — registered view calls (``.view()``, ``reshape``,
``ravel``, ``np.asarray``, …) and view attributes (``.T``, ``.flags``,
…).  Fancy indexing, ``.copy()``, ``np.concatenate`` and friends
*launder* a borrow: their results are fresh owned buffers.

The events:

======================  =================================================
``subscript-store``      ``view[i] = x`` / ``view[a:b] = x``
``attribute-store``      assignment through a borrowed object
                         (``view.flags.writeable = True``, …)
``augassign``            ``view += x`` and friends (in-place ufuncs)
``inplace-method``       registered mutating ndarray method
                         (:data:`INPLACE_METHODS`, ``byteswap`` with
                         ``inplace=True``, ``setflags`` enabling write)
``out-kwarg``            borrowed array passed as an ``out=`` target
``return`` / ``yield``   borrowed view escapes a function not marked
                         ``returns-borrowed``
``closure``              nested function/lambda captures a borrowed name
``store-escape``         borrowed view stored into an object attribute
                         that outlives the frame
======================  =================================================

The pass iterates to a fixpoint over the borrow set (so loop-carried
aliases are seen), then replays once to collect events.  It is
deliberately conservative *and* deliberately shallow: ownership that
crosses function boundaries travels via the ``borrowed`` /
``returns-borrowed`` pragma vocabulary, keeping every verdict local and
explainable.  Runtime cross-validation comes from
:mod:`repro.columnar.guard`, which flips ``writeable = False`` on every
zero-copy buffer so the parity suites execute what this pass proves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.astutils import def_anchor_lines, dotted_name

__all__ = [
    "BORROW_CALLS",
    "BORROWED_ATTRS",
    "INPLACE_METHODS",
    "OWNING_CALLS",
    "VIEW_ATTRS",
    "VIEW_CALLS",
    "DataflowEvent",
    "FunctionOwnership",
    "analyse_module",
]

#: Calls whose result is always a borrowed view of a shared buffer,
#: matched on the last dotted segment (``ops.slice_buffers`` and a bare
#: ``slice_buffers`` alike).
BORROW_CALLS: frozenset[str] = frozenset({
    "slice_buffers", "take_buffers", "column_view", "column_css",
    "column_fields", "frombuffer", "memoryview", "as_readonly",
})

#: Calls that *propagate* a borrow from their receiver / first argument
#: (NumPy view-returning operations).
VIEW_CALLS: frozenset[str] = frozenset({
    "view", "reshape", "ravel", "squeeze", "transpose", "swapaxes",
    "asarray", "ascontiguousarray", "atleast_1d", "broadcast_to",
})

#: Calls that launder a borrow: the result is a fresh owned buffer.
OWNING_CALLS: frozenset[str] = frozenset({
    "copy", "astype", "tolist", "tobytes", "array", "concatenate",
    "empty", "zeros", "ones", "arange", "repeat", "packbits",
    "unpackbits", "pack_validity", "unpack_validity", "cumsum",
    "flatnonzero", "where", "bincount",
})

#: Attribute reads that always yield a borrowed buffer view: the Arrow
#: triple's buffers and the shared-memory handle's raw buffer.
BORROWED_ATTRS: frozenset[str] = frozenset({
    "values", "offsets", "validity", "data", "buffers", "css", "buf",
})

#: Attribute reads that propagate a borrow from their base object.
VIEW_ATTRS: frozenset[str] = frozenset({
    "T", "flat", "real", "imag", "flags", "base",
})

#: ndarray methods that mutate their receiver in place.  ``byteswap``
#: and ``setflags`` are handled separately (mutating only for certain
#: keyword arguments).
INPLACE_METHODS: frozenset[str] = frozenset({
    "sort", "fill", "put", "partition", "itemset", "setfield", "resize",
})


@dataclass(frozen=True)
class DataflowEvent:
    """One borrowed-alias hazard found by the ownership pass."""

    #: Event kind (see the module docstring's table).
    kind: str
    #: The borrowed name (or expression description) involved.
    name: str
    #: 1-based source line to anchor the diagnostic to.
    line: int
    #: Name of the function the event occurred in.
    function: str
    #: Where the borrow came from (origin description).
    origin: str

    @property
    def is_mutation(self) -> bool:
        return self.kind in ("subscript-store", "attribute-store",
                             "augassign", "inplace-method", "out-kwarg")

    @property
    def is_escape(self) -> bool:
        return self.kind in ("return", "yield", "closure", "store-escape")


def _last_segment(node: ast.AST) -> str | None:
    """Last dotted segment of a callable expression, if resolvable."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_basic_index(index: ast.AST) -> bool:
    """Whether a subscript is NumPy *basic* indexing (yields a view).

    Slices, and tuples of slices/constants/``None``/``...``, are basic;
    anything carrying an index array (a ``Name``, call, list, …) is
    fancy indexing and produces an owned copy.
    """
    if isinstance(index, ast.Slice):
        return True
    if isinstance(index, ast.Tuple):
        return all(isinstance(e, (ast.Slice, ast.Constant))
                   or (isinstance(e, ast.UnaryOp)
                       and isinstance(e.operand, ast.Constant))
                   for e in index.elts)
    return False


def _constant_false(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Constant) and not node.value


class FunctionOwnership:
    """The ownership pass over one function.

    Two phases: fixpoint iteration growing the borrow set (so a name
    borrowed late in a loop body is borrowed on the next pass over the
    loop head), then one replay emitting :class:`DataflowEvent`s.
    """

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef,
                 pragmas, returns_borrowed_funcs: frozenset[str]):
        self.func = func
        self.pragmas = pragmas
        self.returns_borrowed_funcs = returns_borrowed_funcs
        self.anchor_lines = def_anchor_lines(func)
        self.returns_borrowed = pragmas.is_returns_borrowed(
            self.anchor_lines)
        #: name -> origin description
        self.borrowed: dict[str, str] = {}
        self.events: list[DataflowEvent] = []
        self._collect = False

    # -- entry point -------------------------------------------------------

    def run(self) -> list[DataflowEvent]:
        self._seed_parameters()
        # Fixpoint: the borrow set only grows, so |locals| passes bound it.
        for _ in range(len(self.func.body) + 2):
            before = set(self.borrowed)
            self._walk_body()
            if set(self.borrowed) == before:
                break
        self._collect = True
        self._walk_body()
        # Loop bodies are walked twice (to model loop-carried borrows)
        # and tuple out= targets may repeat a name: dedupe events.
        seen: set[tuple] = set()
        unique: list[DataflowEvent] = []
        for event in self.events:
            key = (event.kind, event.name, event.line)
            if key not in seen:
                seen.add(key)
                unique.append(event)
        return unique

    def _seed_parameters(self) -> None:
        marked = self.pragmas.borrowed_params(self.anchor_lines)
        if marked is None:
            return
        args = self.func.args
        names = [a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        for name in names:
            if not marked or name in marked:
                self.borrowed[name] = f"parameter {name!r} marked borrowed"

    # -- borrow lattice ----------------------------------------------------

    def origin_of(self, expr: ast.AST) -> str | None:
        """Origin description when ``expr`` evaluates to a borrowed view."""
        if isinstance(expr, ast.Name):
            return self.borrowed.get(expr.id)
        if isinstance(expr, ast.Subscript):
            if _is_basic_index(expr.slice):
                return self.origin_of(expr.value)
            return None  # fancy indexing gathers into an owned buffer
        if isinstance(expr, ast.Attribute):
            if expr.attr in BORROWED_ATTRS:
                base = dotted_name(expr.value) or "<expr>"
                return f"buffer attribute {base}.{expr.attr}"
            if expr.attr in VIEW_ATTRS:
                return self.origin_of(expr.value)
            return None
        if isinstance(expr, ast.Call):
            return self._call_origin(expr)
        if isinstance(expr, ast.IfExp):
            return self.origin_of(expr.body) or self.origin_of(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                origin = self.origin_of(value)
                if origin:
                    return origin
            return None
        if isinstance(expr, ast.NamedExpr):
            return self.origin_of(expr.value)
        if isinstance(expr, ast.Starred):
            return self.origin_of(expr.value)
        return None

    def _call_origin(self, call: ast.Call) -> str | None:
        name = _last_segment(call.func)
        if name is None:
            return None
        if name in OWNING_CALLS:
            return None
        if name in BORROW_CALLS or name in self.returns_borrowed_funcs:
            return f"view returned by {name}()"
        if name in VIEW_CALLS:
            # Method style (view.reshape(-1)): borrow flows from the
            # receiver.  Module style (np.asarray(view)): from the first
            # argument — ``np`` itself never carries a borrow, so trying
            # the attribute base first is safe for both.
            if isinstance(call.func, ast.Attribute):
                origin = self.origin_of(call.func.value)
                if origin:
                    return origin
            if call.args:
                return self.origin_of(call.args[0])
            return None
        if name == "ndarray" \
                and any(kw.arg == "buffer" for kw in call.keywords):
            return "ndarray constructed over a foreign buffer"
        return None

    # -- traversal ---------------------------------------------------------

    def _walk_body(self) -> None:
        for stmt in self.func.body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            self._check_closure(stmt)
            return
        # Hazards inside expressions (in-place methods, out=, lambda
        # captures) can occur in any statement kind; scan every call and
        # lambda not in a deeper nested scope.
        for call in self._calls_in(stmt):
            self._check_call(call)
        for lam in self._lambdas_in(stmt):
            self._check_closure(lam)
        if isinstance(stmt, ast.Assign):
            self._visit_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind_target(stmt.target, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            self._visit_augassign(stmt)
        elif isinstance(stmt, ast.Return):
            self._check_escape(stmt.value, stmt.lineno, "return")
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Yield):
                self._check_escape(value.value, stmt.lineno, "yield")
            elif isinstance(value, ast.YieldFrom):
                self._check_escape(value.value, stmt.lineno, "yield")
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(stmt.target, None, stmt.lineno, clear=True)
            # Twice: the second walk sees borrows established at the end
            # of the first, modelling loop-carried aliases.
            for _ in range(2):
                for sub in stmt.body:
                    self._visit_stmt(sub)
            for sub in stmt.orelse:
                self._visit_stmt(sub)
        elif isinstance(stmt, ast.While):
            for _ in range(2):
                for sub in stmt.body:
                    self._visit_stmt(sub)
            for sub in stmt.orelse:
                self._visit_stmt(sub)
        elif isinstance(stmt, ast.If):
            for sub in stmt.body + stmt.orelse:
                self._visit_stmt(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars,
                                      item.context_expr, stmt.lineno)
            for sub in stmt.body:
                self._visit_stmt(sub)
        elif isinstance(stmt, ast.Try):
            for sub in (stmt.body + stmt.orelse + stmt.finalbody
                        + [s for h in stmt.handlers for s in h.body]):
                self._visit_stmt(sub)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                self._visit_stmt(sub)

    def _calls_in(self, stmt: ast.stmt):
        """Every Call in ``stmt`` that is not inside a nested scope."""
        stack: list[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            if node is not stmt and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    def _lambdas_in(self, stmt: ast.stmt):
        """Outermost lambdas in ``stmt`` (not inside nested defs)."""
        stack: list[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            if node is not stmt and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Lambda):
                yield node
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- binding -----------------------------------------------------------

    def _visit_assign(self, stmt: ast.Assign) -> None:
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                self._check_subscript_store(target, stmt)
            elif isinstance(target, ast.Attribute):
                self._check_attribute_store(target, stmt)
            else:
                self._bind_target(target, stmt.value, stmt.lineno)

    def _bind_target(self, target: ast.AST, value: ast.AST | None,
                     line: int, clear: bool = False) -> None:
        forced = self.pragmas.forced_ownership(line)
        if isinstance(target, ast.Name):
            if clear or value is None:
                origin = None
            else:
                origin = self.origin_of(value)
            if forced == "owned":
                origin = None
            elif forced == "borrowed":
                origin = origin or "asserted borrowed by pragma"
            if origin:
                self.borrowed[target.id] = origin
            else:
                self.borrowed.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) \
                    and len(value.elts) == len(target.elts):
                for sub_t, sub_v in zip(target.elts, value.elts):
                    self._bind_target(sub_t, sub_v, line)
                return
            # Unpacking an opaque value: a borrow-source call taints all
            # targets (e.g. ``values, offsets = part.column_view(c)``).
            origin = None if (clear or value is None) \
                else self.origin_of(value)
            if forced == "owned":
                origin = None
            for sub in target.elts:
                if isinstance(sub, ast.Name):
                    if origin:
                        self.borrowed[sub.id] = origin
                    else:
                        self.borrowed.pop(sub.id, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, value, line, clear=clear)

    def _visit_augassign(self, stmt: ast.AugAssign) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            origin = self.borrowed.get(target.id)
            if origin:
                self._emit("augassign", target.id, stmt.lineno, origin)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            origin = self.origin_of(target.value)
            if origin:
                self._emit("augassign",
                           dotted_name(target.value) or "<expr>",
                           stmt.lineno, origin)

    # -- hazards -----------------------------------------------------------

    def _emit(self, kind: str, name: str, line: int, origin: str) -> None:
        if self._collect:
            self.events.append(DataflowEvent(
                kind=kind, name=name, line=line,
                function=self.func.name, origin=origin))

    def _check_subscript_store(self, target: ast.Subscript,
                               stmt: ast.Assign) -> None:
        origin = self.origin_of(target.value)
        if origin:
            self._emit("subscript-store",
                       dotted_name(target.value) or "<expr>",
                       target.lineno, origin)

    def _check_attribute_store(self, target: ast.Attribute,
                               stmt: ast.Assign) -> None:
        origin = self.origin_of(target.value)
        if origin:
            # Writing *through* a borrowed object (x.flags.writeable = …).
            self._emit("attribute-store",
                       dotted_name(target.value) or "<expr>",
                       target.lineno, origin)
            return
        value_origin = self.origin_of(stmt.value)
        if value_origin:
            # Storing a borrowed view into an outliving object.
            self._emit("store-escape",
                       dotted_name(target) or "<attribute>",
                       target.lineno, value_origin)

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver_origin = self.origin_of(func.value)
            if receiver_origin:
                if func.attr in INPLACE_METHODS:
                    self._emit("inplace-method",
                               f"{dotted_name(func.value) or '<expr>'}"
                               f".{func.attr}()",
                               call.lineno, receiver_origin)
                elif func.attr == "byteswap":
                    inplace = next((kw.value for kw in call.keywords
                                    if kw.arg == "inplace"),
                                   call.args[0] if call.args else None)
                    if inplace is not None \
                            and not _constant_false(inplace):
                        self._emit("inplace-method",
                                   f"{dotted_name(func.value) or '<expr>'}"
                                   f".byteswap(inplace=…)",
                                   call.lineno, receiver_origin)
                elif func.attr == "setflags":
                    write = next((kw.value for kw in call.keywords
                                  if kw.arg == "write"), None)
                    if write is not None and not _constant_false(write):
                        self._emit("inplace-method",
                                   f"{dotted_name(func.value) or '<expr>'}"
                                   f".setflags(write=…)",
                                   call.lineno, receiver_origin)
        for kw in call.keywords:
            if kw.arg != "out":
                continue
            targets = kw.value.elts \
                if isinstance(kw.value, ast.Tuple) else [kw.value]
            for out_target in targets:
                origin = self.origin_of(out_target)
                if origin:
                    self._emit("out-kwarg",
                               dotted_name(out_target) or "<expr>",
                               kw.value.lineno, origin)

    def _check_escape(self, value: ast.AST | None, line: int,
                      kind: str) -> None:
        if value is None or self.returns_borrowed:
            return
        candidates = value.elts \
            if isinstance(value, (ast.Tuple, ast.List)) else [value]
        for expr in candidates:
            origin = self.origin_of(expr)
            if origin:
                self._emit(kind, dotted_name(expr) or "<expr>",
                           line, origin)
                return

    def _check_closure(self, nested) -> None:
        if not self.borrowed:
            return
        bound: set[str] = set()
        if not isinstance(nested, ast.Lambda):
            for node in ast.walk(nested):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, (ast.Store, ast.Del)):
                    bound.add(node.id)
        args = nested.args
        bound.update(a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs))
        body = nested.body if isinstance(nested.body, list) \
            else [nested.body]
        for node in [n for b in body for n in ast.walk(b)]:
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load) \
                    and node.id in self.borrowed \
                    and node.id not in bound:
                label = getattr(nested, "name", "<lambda>")
                self._emit("closure", node.id, nested.lineno,
                           self.borrowed[node.id]
                           + f" (captured by {label})")
                return


def _functions_in(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def analyse_module(module) -> list[DataflowEvent]:
    """Run the ownership pass over every function of one module."""
    returns_borrowed = frozenset(
        func.name for func in _functions_in(module.tree)
        if module.pragmas.is_returns_borrowed(def_anchor_lines(func)))
    events: list[DataflowEvent] = []
    for func in _functions_in(module.tree):
        analysis = FunctionOwnership(func, module.pragmas,
                                     returns_borrowed)
        events.extend(analysis.run())
    return events
