"""Engine v2: the project-wide analysis model behind GF010-GF012.

The original engine hands each rule one file at a time; the concurrency
rules need to see the whole program.  :func:`build_project` parses every
scanned module once and derives:

* a **symbol table** — every class with its methods, properties, and the
  inferred classes of its ``self.<attr>`` attributes (from constructor
  calls, parameter annotations, and return annotations of calls the
  table can already resolve);
* the **lock model** — attributes assigned a ``threading.Lock()`` /
  ``threading.RLock()`` / :func:`repro.tools.tsan.named_lock` (or bound
  from a lock-annotated parameter), each identified by a stable
  ``(Class, attr)`` key, with ``# lock-alias: Class.attr`` comments
  merging attributes that hold the *same* lock object at runtime (the
  ticker borrows the gateway's lock, so both names must be one node);
* the **guard table** — fields declared ``# guarded-by: self.<lock>``
  on their assignment line;
* a **call graph** — per function, every call site the model can
  resolve (``self.method()``, attribute calls on typed receivers,
  module functions, imported project functions, property reads), each
  annotated with the set of locks held at the site;
* **lock acquisitions** and **blocking-call sites**, likewise annotated
  with the locks held when they happen.

Everything is best-effort and conservative: an expression the inference
cannot type simply resolves to nothing, and the rules only fire on what
*was* resolved — so the engine never needs to import the code under
analysis and unresolvable dynamic calls cannot produce false findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.tools.staticcheck.rules import (
    BLOCKING_BUILTINS,
    BLOCKING_CALLS,
    BLOCKING_METHOD_NAMES,
    BLOCKING_PREFIXES,
    _canonical_call,
    _dotted_name,
    _import_map,
)

__all__ = [
    "Acquisition",
    "BlockSite",
    "CallSite",
    "ClassInfo",
    "FieldAccess",
    "FunctionInfo",
    "LockKey",
    "Project",
    "build_project",
    "extract_guarded_fields",
]

#: A lock's stable identity: ``(class name, attribute name)``, after
#: alias normalization.
LockKey = Tuple[str, str]

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*self\.([A-Za-z_]\w*)")
_LOCK_ALIAS = re.compile(r"#\s*lock-alias:\s*([A-Za-z_]\w*)\.([A-Za-z_]\w*)")

#: Canonical constructors that create a lock object.
_LOCK_CTORS = {"threading.Lock": False, "threading.RLock": True}
#: The tsan factory (``named_lock``) also creates locks; ``reentrant=``
#: keyword decides the kind.
_TSAN_FACTORY_TAIL = "named_lock"


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------
@dataclass(eq=False)
class LockSpec:
    """One lock-holding attribute of a class."""

    attr: str
    reentrant: bool = False
    #: Where the alias comment points, if any (pre-normalization).
    alias: Optional[LockKey] = None


@dataclass(eq=False)
class FieldAccess:
    """One read/write of a guarded field."""

    node: ast.AST
    owner: "ClassInfo"
    attr: str
    held: Tuple[LockKey, ...]
    is_store: bool
    function: "FunctionInfo"
    #: True when the receiver is literally ``self`` (constructor writes
    #: to ``self`` are exempt from GF010; aliased receivers are not).
    via_self: bool = False


@dataclass(eq=False)
class CallSite:
    """One resolved call (or property read) with the locks held there."""

    node: ast.AST
    callee: "FunctionInfo"
    held: Tuple[LockKey, ...]
    function: "FunctionInfo"


@dataclass(eq=False)
class BlockSite:
    """One potentially-blocking operation (GF009/GF012 table hit)."""

    node: ast.AST
    desc: str
    held: Tuple[LockKey, ...]
    function: "FunctionInfo"


@dataclass(eq=False)
class Acquisition:
    """One ``with <lock>`` entry with the locks already held."""

    key: LockKey
    node: ast.AST
    held: Tuple[LockKey, ...]
    function: "FunctionInfo"


@dataclass(eq=False)
class FunctionInfo:
    """One function or method plus everything the analysis saw in it."""

    qualname: str
    node: ast.AST
    ctx: object  # ModuleContext (kept untyped to avoid an import cycle)
    class_name: Optional[str] = None
    is_property: bool = False
    accesses: List[FieldAccess] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    block_sites: List[BlockSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def is_private(self) -> bool:
        name = self.name
        return name.startswith("_") and not name.startswith("__")


@dataclass(eq=False)
class ClassInfo:
    """One class: methods, locks, guarded fields, attribute types."""

    name: str
    module: str
    ctx: object
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    locks: Dict[str, LockSpec] = field(default_factory=dict)
    #: field name -> guard lock attribute name (both on this class).
    guarded: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> ClassInfo of its inferred type.
    attr_types: Dict[str, "ClassInfo"] = field(default_factory=dict)
    #: raw ``self.x = <expr>`` assignments, for the type-inference pass.
    _attr_assigns: List[Tuple[str, ast.AST, FunctionInfo]] = field(
        default_factory=list
    )
    #: explicit ``self.x: T`` / class-body ``x: T`` annotations; these
    #: back up value inference when the assigned expression is opaque
    #: (``self.peer: Peer = None``).
    _attr_anns: List[Tuple[str, ast.AST]] = field(default_factory=list)


class Project:
    """The cross-module view the concurrency rules query."""

    def __init__(self, contexts: Sequence[object]) -> None:
        self.contexts = list(contexts)
        #: class simple name -> [ClassInfo] (may collide across modules).
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: canonical dotted path -> ClassInfo.
        self.classes_by_path: Dict[str, ClassInfo] = {}
        #: canonical dotted path -> module-level FunctionInfo.
        self.functions_by_path: Dict[str, FunctionInfo] = {}
        #: all functions and methods, in deterministic order.
        self.functions: List[FunctionInfo] = []
        #: (class, attr) -> (class, attr) alias normalization map.
        self.lock_aliases: Dict[LockKey, LockKey] = {}
        #: normalized lock key -> reentrant?
        self.lock_reentrant: Dict[LockKey, bool] = {}

    # ------------------------------------------------------------------
    def classes(self) -> Iterable[ClassInfo]:
        return self.classes_by_path.values()

    def resolve_class_name(
        self, name: str, ctx: object
    ) -> Optional[ClassInfo]:
        """Resolve a simple class name as seen from *ctx*'s module."""
        candidates = self.classes_by_name.get(name, [])
        for cls in candidates:
            if cls.ctx is ctx:
                return cls
        if len(candidates) == 1:
            return candidates[0]
        return None

    def normalize_lock(self, key: LockKey) -> LockKey:
        seen = {key}
        while key in self.lock_aliases:
            key = self.lock_aliases[key]
            if key in seen:  # defensive: alias cycles degrade to identity
                break
            seen.add(key)
        return key

    def is_reentrant(self, key: LockKey) -> bool:
        return self.lock_reentrant.get(self.normalize_lock(key), False)

    def callers_of(self, func: FunctionInfo) -> List[CallSite]:
        return [
            site
            for f in self.functions
            for site in f.calls
            if site.callee is func
        ]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _module_dotted(ctx) -> str:
    """Canonical dotted module path (``repro.service.ingest``)."""
    stem = ctx.module[:-3] if ctx.module.endswith(".py") else ctx.module
    dotted = stem.replace("/", ".")
    return f"repro.{dotted}" if ctx.anchored else dotted


def _annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Every terminal identifier mentioned in an annotation expression."""
    names: Set[str] = set()
    if node is None:
        return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotations: take the last dotted component.
            names.add(sub.value.strip().rsplit(".", 1)[-1].strip("[]' \""))
    return names


def _line_comment_match(ctx, node: ast.AST, pattern: re.Pattern):
    lineno = getattr(node, "lineno", None)
    if lineno is None or lineno > len(ctx.lines):
        return None
    return pattern.search(ctx.lines[lineno - 1])


def _self_attr_target(stmt: ast.AST) -> Optional[str]:
    """``self.<attr>`` assignment target name, if *stmt* is one."""
    targets: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
    return None


def _lock_ctor_kind(value: ast.AST, imports: dict) -> Optional[bool]:
    """Is *value* (or a sub-expression) a lock constructor?  -> reentrant."""
    for sub in ast.walk(value):
        if not isinstance(sub, ast.Call):
            continue
        canonical = _canonical_call(sub, imports)
        if canonical in _LOCK_CTORS:
            return _LOCK_CTORS[canonical]
        dotted = _dotted_name(sub.func)
        tail = (canonical or dotted or "").rsplit(".", 1)[-1]
        if tail == _TSAN_FACTORY_TAIL:
            for kw in sub.keywords:
                if (
                    kw.arg == "reentrant"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
            return False
    return None


def extract_guarded_fields(source: str) -> Dict[str, Dict[str, str]]:
    """``{class name: {field: lock attr}}`` from one module's source.

    The runtime sanitizer (:mod:`repro.tools.tsan`) calls this so the
    ``# guarded-by`` annotations stay the single source of truth for
    both the static and the runtime layer.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}
    lines = source.splitlines()
    table: Dict[str, Dict[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        fields: Dict[str, str] = {}
        for stmt in ast.walk(node):
            attr = _self_attr_target(stmt)
            if attr is None:
                continue
            lineno = getattr(stmt, "lineno", 0)
            if 0 < lineno <= len(lines):
                match = _GUARDED_BY.search(lines[lineno - 1])
                if match:
                    fields[attr] = match.group(1)
        if fields:
            table[node.name] = fields
    return table


# ----------------------------------------------------------------------
# Pass A: symbols
# ----------------------------------------------------------------------
def _collect_symbols(project: Project) -> None:
    for ctx in project.contexts:
        dotted = _module_dotted(ctx)
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                cls = ClassInfo(name=node.name, module=ctx.module, ctx=ctx, node=node)
                project.classes_by_name.setdefault(node.name, []).append(cls)
                project.classes_by_path[f"{dotted}.{node.name}"] = cls
                _collect_class_members(project, cls)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(qualname=node.name, node=node, ctx=ctx)
                project.functions_by_path[f"{dotted}.{node.name}"] = info
                project.functions.append(info)


def _collect_class_members(project: Project, cls: ClassInfo) -> None:
    for stmt in cls.node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        info = FunctionInfo(
            qualname=f"{cls.name}.{stmt.name}",
            node=stmt,
            ctx=cls.ctx,
            class_name=cls.name,
        )
        for deco in stmt.decorator_list:
            name = deco.attr if isinstance(deco, ast.Attribute) else (
                deco.id if isinstance(deco, ast.Name) else None
            )
            if name in {"property", "cached_property"}:
                info.is_property = True
                cls.properties.add(stmt.name)
        cls.methods[stmt.name] = info
        project.functions.append(info)
    imports = _import_map(cls.ctx.tree)
    # Attribute assignments, lock discovery, guard/alias comments.
    for method in cls.methods.values():
        params = _param_annotations(method.node)
        for stmt in ast.walk(method.node):
            attr = _self_attr_target(stmt)
            if attr is None:
                continue
            value = getattr(stmt, "value", None)
            if value is not None:
                cls._attr_assigns.append((attr, value, method))
                kind = _lock_ctor_kind(value, imports)
                if kind is None and isinstance(value, (ast.Name, ast.IfExp)):
                    kind = _param_lock_kind(value, params)
                if kind is not None and attr not in cls.locks:
                    cls.locks[attr] = LockSpec(attr=attr, reentrant=kind)
            if isinstance(stmt, ast.AnnAssign):
                cls._attr_anns.append((attr, stmt.annotation))
            guard = _line_comment_match(cls.ctx, stmt, _GUARDED_BY)
            if guard:
                cls.guarded[attr] = guard.group(1)
            alias = _line_comment_match(cls.ctx, stmt, _LOCK_ALIAS)
            if alias:
                spec = cls.locks.setdefault(attr, LockSpec(attr=attr))
                spec.alias = (alias.group(1), alias.group(2))
    # Class-body annotations (``peer: Peer``) type attributes too.
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            cls._attr_anns.append((stmt.target.id, stmt.annotation))
    # A declared guard that was not recognized as a lock still counts
    # as one (the annotation is authoritative).
    for lock_attr in cls.guarded.values():
        cls.locks.setdefault(lock_attr, LockSpec(attr=lock_attr))


def _param_annotations(func: ast.AST) -> Dict[str, ast.AST]:
    table: Dict[str, ast.AST] = {}
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            table[arg.arg] = arg.annotation
    return table


def _param_lock_kind(
    value: ast.AST, params: Dict[str, ast.AST]
) -> Optional[bool]:
    """Lock kind when *value* is (or contains) a lock-annotated parameter."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Name) and sub.id in params:
            names = _annotation_names(params[sub.id])
            if "RLock" in names:
                return True
            if "Lock" in names:
                return False
    return None


# ----------------------------------------------------------------------
# Pass B: type + alias resolution
# ----------------------------------------------------------------------
def _resolve_types(project: Project) -> None:
    # Two sweeps: attribute types may depend on other classes' return
    # annotations, which may in turn depend on attribute types.
    for _ in range(2):
        for cls in project.classes():
            for attr, value, method in cls._attr_assigns:
                resolved = _infer_type(
                    project, value, _method_env(project, cls, method), cls
                )
                if resolved is not None:
                    cls.attr_types[attr] = resolved
            # Fall back to explicit annotations where value inference
            # came up empty (e.g. ``self.peer: Peer = None``).
            for attr, annotation in cls._attr_anns:
                if attr in cls.attr_types:
                    continue
                for candidate in _annotation_names(annotation):
                    resolved = project.resolve_class_name(candidate, cls.ctx)
                    if resolved is not None:
                        cls.attr_types[attr] = resolved
                        break
    for cls in project.classes():
        for spec in cls.locks.values():
            key = (cls.name, spec.attr)
            if spec.alias is not None and spec.alias != key:
                project.lock_aliases[key] = spec.alias
    for cls in project.classes():
        for spec in cls.locks.values():
            key = project.normalize_lock((cls.name, spec.attr))
            if spec.reentrant:
                project.lock_reentrant[key] = True
            else:
                project.lock_reentrant.setdefault(key, False)


def _method_env(
    project: Project, cls: Optional[ClassInfo], func: FunctionInfo
) -> Dict[str, ClassInfo]:
    """Parameter name -> ClassInfo, from annotations."""
    env: Dict[str, ClassInfo] = {}
    for name, annotation in _param_annotations(func.node).items():
        for candidate in _annotation_names(annotation):
            resolved = project.resolve_class_name(candidate, func.ctx)
            if resolved is not None:
                env[name] = resolved
                break
    return env


def _infer_type(
    project: Project,
    expr: ast.AST,
    env: Dict[str, ClassInfo],
    current: Optional[ClassInfo],
) -> Optional[ClassInfo]:
    """Best-effort static type of *expr* (project classes only)."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return current.attr_types.get(expr.attr) if current else None
        base = _infer_type(project, expr.value, env, current)
        if base is not None:
            return base.attr_types.get(expr.attr)
        return None
    if isinstance(expr, ast.Call):
        callee = _resolve_callee(project, expr, env, current)
        if callee is not None:
            returns = getattr(callee.node, "returns", None)
            for candidate in _annotation_names(returns):
                resolved = project.resolve_class_name(candidate, callee.ctx)
                if resolved is not None:
                    return resolved
            return None
        # Direct constructor call: ClassName(...) or module.ClassName(...).
        dotted = _dotted_name(expr.func)
        if dotted is not None:
            tail = dotted.rsplit(".", 1)[-1]
            imports = _import_map(
                current.ctx.tree if current is not None else ast.Module(body=[], type_ignores=[])
            )
            canonical = _canonical_call(expr, imports)
            if canonical is not None and canonical in project.classes_by_path:
                return project.classes_by_path[canonical]
            return project.resolve_class_name(
                tail, current.ctx if current is not None else None
            )
    return None


def _resolve_callee(
    project: Project,
    call: ast.Call,
    env: Dict[str, ClassInfo],
    current: Optional[ClassInfo],
) -> Optional[FunctionInfo]:
    """Resolve a call to a project FunctionInfo, or None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "self" and current is not None:
            return current.methods.get(func.attr)
        recv_type = _infer_type(project, recv, env, current)
        if recv_type is not None:
            return recv_type.methods.get(func.attr)
        return None
    if isinstance(func, ast.Name):
        ctx = current.ctx if current is not None else None
        # Same-module function first, then an imported project function.
        if ctx is not None:
            dotted = _module_dotted(ctx)
            local = project.functions_by_path.get(f"{dotted}.{func.id}")
            if local is not None and local.ctx is ctx:
                return local
            imports = _import_map(ctx.tree)
            canonical = imports.get(func.id)
            if canonical is not None:
                return project.functions_by_path.get(canonical)
    return None


# ----------------------------------------------------------------------
# Pass C: per-function analysis (locks held, calls, accesses, blocking)
# ----------------------------------------------------------------------
class _FunctionAnalyzer(ast.NodeVisitor):
    """Walk one function body tracking the ordered set of held locks."""

    def __init__(
        self,
        project: Project,
        func: FunctionInfo,
        cls: Optional[ClassInfo],
        blocking_calls: Set[str],
        blocking_prefixes: Tuple[str, ...],
        blocking_builtins: Set[str],
        blocking_methods: Set[str],
    ) -> None:
        self.project = project
        self.func = func
        self.cls = cls
        self.env = _method_env(project, cls, func)
        self.imports = _import_map(func.ctx.tree)
        self.held: Tuple[LockKey, ...] = ()
        self._blocking_calls = blocking_calls
        self._blocking_prefixes = blocking_prefixes
        self._blocking_builtins = blocking_builtins
        self._blocking_methods = blocking_methods

    # -- helpers -------------------------------------------------------
    def _lock_key(self, expr: ast.AST) -> Optional[LockKey]:
        if not isinstance(expr, ast.Attribute):
            return None
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            if self.cls is not None and expr.attr in self.cls.locks:
                return self.project.normalize_lock((self.cls.name, expr.attr))
            return None
        recv_type = _infer_type(self.project, expr.value, self.env, self.cls)
        if recv_type is not None and expr.attr in recv_type.locks:
            return self.project.normalize_lock((recv_type.name, expr.attr))
        return None

    def _owner_of_attr(self, node: ast.Attribute) -> Optional[ClassInfo]:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return self.cls
        return _infer_type(self.project, node.value, self.env, self.cls)

    # -- visitors ------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        acquired: List[LockKey] = []
        for item in node.items:
            key = self._lock_key(item.context_expr)
            if key is not None:
                self.func.acquisitions.append(
                    Acquisition(
                        key=key,
                        node=item.context_expr,
                        held=self.held,
                        function=self.func,
                    )
                )
                self.held = (*self.held, key)
                acquired.append(key)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            self.held = self.held[: len(self.held) - len(acquired)]

    def visit_Call(self, node: ast.Call) -> None:
        callee = _resolve_callee(self.project, node, self.env, self.cls)
        if callee is not None:
            self.func.calls.append(
                CallSite(node=node, callee=callee, held=self.held, function=self.func)
            )
        else:
            self._check_blocking(node)
        # Still walk arguments (nested calls, lambdas).
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        # Walk the receiver chain too (it may read guarded fields).
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)

    def _check_blocking(self, node: ast.Call) -> None:
        canonical = _canonical_call(node, self.imports)
        if canonical is not None and (
            canonical in self._blocking_calls
            or canonical.startswith(self._blocking_prefixes)
        ):
            self._record_block(node, f"{canonical}()")
            return
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self._blocking_builtins
            and node.func.id not in self.imports
        ):
            self._record_block(node, f"{node.func.id}()")
            return
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            recv = node.func.value
            if method in self._blocking_methods and not isinstance(
                recv, ast.Constant
            ):
                self._record_block(node, f".{method}()")

    def _record_block(self, node: ast.AST, desc: str) -> None:
        self.func.block_sites.append(
            BlockSite(node=node, desc=desc, held=self.held, function=self.func)
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        owner = self._owner_of_attr(node)
        if owner is not None:
            if node.attr in owner.guarded:
                self.func.accesses.append(
                    FieldAccess(
                        node=node,
                        owner=owner,
                        attr=node.attr,
                        held=self.held,
                        is_store=isinstance(node.ctx, (ast.Store, ast.Del)),
                        function=self.func,
                        via_self=(
                            isinstance(node.value, ast.Name)
                            and node.value.id == "self"
                        ),
                    )
                )
            elif node.attr in owner.properties and isinstance(node.ctx, ast.Load):
                # A property read is a call in disguise.
                self.func.calls.append(
                    CallSite(
                        node=node,
                        callee=owner.methods[node.attr],
                        held=self.held,
                        function=self.func,
                    )
                )
        self.visit(node.value)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs get their own FunctionInfo only if module/class level

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes are out of model


def _analyze_functions(project: Project, blocking_tables: dict) -> None:
    for func in project.functions:
        cls = None
        if func.class_name is not None:
            cls = project.resolve_class_name(func.class_name, func.ctx)
        analyzer = _FunctionAnalyzer(
            project,
            func,
            cls,
            blocking_calls=blocking_tables["calls"],
            blocking_prefixes=blocking_tables["prefixes"],
            blocking_builtins=blocking_tables["builtins"],
            blocking_methods=blocking_tables["methods"],
        )
        for stmt in func.node.body:
            analyzer.visit(stmt)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_project(contexts: Sequence[object]) -> Project:
    """Build the full cross-module model over parsed *contexts*."""
    project = Project(contexts)
    _collect_symbols(project)
    _resolve_types(project)
    _analyze_functions(
        project,
        {
            "calls": set(BLOCKING_CALLS),
            "prefixes": tuple(BLOCKING_PREFIXES),
            "builtins": set(BLOCKING_BUILTINS),
            "methods": set(BLOCKING_METHOD_NAMES),
        },
    )
    return project
