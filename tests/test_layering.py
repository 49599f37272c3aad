"""The package's module graph: intra-package imports sit at module top and
form no cycle.  The package and the tests carry no unused import and no
unread local.  Every top-level name and class member of the package is read
by other package code, every default is used by some call, every parameter
is read, the package's settable values do not grow, and no module takes
another module's private names; each exception is named with its reason in
an allow-list below, and each allow-list entry must still excuse a finding.

An import inside a function hides a cycle from the reader and from import
order; with every intra-package import at module top, the modules can be
read (and loaded) in one order: core → rules → formats → search/learn →
gnn → runner → envs → bench → cli.  Standard-library imports may stay lazy.
"""

import ast
from collections import Counter
from pathlib import Path

from bison import envs, gnn, learn, runner

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bison"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(name):
    return ast.parse((PACKAGE / (name + ".py")).read_text(encoding="utf-8"))


def _linted(names):
    """(file label, AST) of the named package modules and of every test file."""
    for name in names:
        yield name + ".py", _tree(name)
    for path in sorted(TESTS.glob("*.py")):
        yield "tests/" + path.name, ast.parse(path.read_text(encoding="utf-8"))


def _package_targets(node):
    """The package modules an import statement names, or None for any other
    import ("from . import a, b", "from .a import x", "from bison.a import x",
    "import bison.a")."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and (node.module or "").split(".")[0] != "bison":
            return None
        module = (node.module or "").split(".")
        if node.level == 0:
            module = module[1:]
        if module and module[0]:
            return [module[0]]
        return [a.name for a in node.names]
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names if a.name.split(".")[0] == "bison"]
        return [n[1] for n in names if len(n) > 1] or None
    return None


def _imports_in(body):
    for node in body:
        for sub in ast.walk(node):
            targets = _package_targets(sub)
            if targets is not None:
                yield sub, targets


def test_no_intra_package_import_inside_a_function():
    late = []
    for name in MODULES + ["__init__"]:
        for node in ast.walk(_tree(name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                body = node.body if isinstance(node.body, list) else [node.body]
                for imp, targets in _imports_in(body):
                    late.append("%s.py:%d imports %s" % (name, imp.lineno, ", ".join(targets)))
    assert not late, late


def _graph():
    """Module -> the package modules it imports, wherever the import sits (so
    a cycle closed by a late import counts too)."""
    graph = {}
    for name in MODULES:
        deps = set()
        for _, targets in _imports_in(_tree(name).body):
            deps.update(t for t in targets if t in MODULES)
        graph[name] = deps
    return graph


def test_module_import_graph_is_acyclic():
    graph = _graph()
    state = {}  # 1: on the DFS path, 2: done

    def visit(name, path):
        if state.get(name) == 2:
            return
        assert state.get(name) != 1, "import cycle: " + " -> ".join(path + [name])
        state[name] = 1
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        state[name] = 2

    for name in MODULES:
        visit(name, [])
    assert graph["core"] == set()  # the base every other module builds on
    assert "envs" not in graph["runner"]


def test_hoisted_imports_still_call_through_the_module(monkeypatch):
    # generate_demos and build_dataset reach runner and learn through the
    # module, so a name rebound there (as the benchmark's tracer does) is seen
    calls = []

    def counted(module, attr):
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr,
                            lambda *a, **k: calls.append(attr) or real(*a, **k))

    counted(runner, "run_episode")
    counted(learn, "extract_hl_trace")
    demos = envs.generate_demos(envs.EnvConfig("blocks", 1, seed=0), 1)
    assert demos and calls == ["run_episode"]
    spec = gnn.EncodingSpec.for_domain(envs.env_domain("blocks"), envs.EGO_DIM,
                                       envs.obj_dim("blocks"), envs.ACTION_DIM)
    gnn.build_dataset(demos, envs.env_domain("blocks"), envs.make_labeller("blocks"), spec)
    assert calls == ["run_episode", "extract_hl_trace"]


def test_envs_reads_numpy_only_as_its_generator():
    # an env step runs on plain floats and an LL action is the float list a
    # demo step holds, so numpy in envs is np.random alone: the seeded
    # generator, whose draws fix every layout.  An array built or read in the
    # step path is a round trip back to that list
    tree = _tree("envs")
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name.split(".")[0] == "numpy"}
    other = ["envs.py:%d from %s import" % (n.lineno, n.module) for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "numpy"]
    generator = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.attr == "random"}
    other += ["envs.py:%d %s" % (n.lineno, ast.unparse(parent)) for parent in ast.walk(tree)
              for n in ast.iter_child_nodes(parent) if isinstance(n, ast.Name)
              and n.id in aliases and id(n) not in generator]
    assert not other, other


# Private names a module takes from another package module, each with its reason
# (none)
PRIVATE_IMPORTS = {}


def _private_names_taken(name):
    """(label, private name, allow-listable) of each private name package
    module ``name`` takes from another: by "from .rules import _x", which an
    entry in ``PRIVATE_IMPORTS`` may excuse, or as "rules._x" after "from .
    import rules", which none may."""
    tree = _tree(name)
    modules = set()
    for node, targets in _imports_in(tree.body):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module in (None, "bison"):  # from . import rules
            modules.update(a.asname or a.name for a in node.names)
            continue
        yield from (("%s.py:%d %s.%s" % (name, node.lineno, targets[0], a.name), a.name, True)
                    for a in node.names if a.name.startswith("_"))
    yield from (("%s.py:%d %s.%s" % (name, n.lineno, n.value.id, n.attr), n.attr, False)
                for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id in modules
                and n.attr.startswith("_"))


def test_no_module_imports_another_modules_private_names():
    private = [label for name in MODULES + ["__init__"]
               for label, attr, listable in _private_names_taken(name)
               if not (listable and attr in PRIVATE_IMPORTS.get(name, ()))]
    assert not private, private


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export, so it is the one module left out
    unused = []
    for label, tree in _linted(MODULES):
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append("%s:%d %s" % (label, node.lineno, bound))
    assert not unused, unused


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef) + _COMPREHENSIONS


def _split(scope):
    """(inside, outside): the nodes of ``scope`` that run in its own scope,
    and those that run in the enclosing one (decorators, defaults, bases, a
    comprehension's first iterable)."""
    if isinstance(scope, ast.ClassDef):
        return scope.body, scope.decorator_list + scope.bases + scope.keywords
    if isinstance(scope, _COMPREHENSIONS):
        first, *rest = scope.generators
        inside = [getattr(scope, f) for f in ("elt", "key", "value") if hasattr(scope, f)]
        inside += [first.target, *first.ifs]
        inside += [n for g in rest for n in (g.target, g.iter, *g.ifs)]
        return inside, [first.iter]
    outside = scope.args.defaults + [d for d in scope.args.kw_defaults if d is not None]
    if isinstance(scope, ast.Lambda):
        return [scope.body], outside
    return scope.body, outside + scope.decorator_list


def _own_scope(scope):
    """The nodes that run in ``scope`` itself, and the scopes nested directly
    in it (functions, lambdas, classes and comprehensions)."""
    todo, own, nested = list(_split(scope)[0]), [], []
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            nested.append(node)
            todo += _split(node)[1]
        else:
            own.append(node)
            todo += ast.iter_child_nodes(node)
    return own, nested


def _binds(scope):
    """The names ``scope`` binds for itself, so a read of one there is not a
    read of the enclosing scope's: a comprehension's targets, or the
    parameters, assigned, imported, defined and ``except … as`` names and
    ``global`` names of a function or class, less its ``nonlocal`` names."""
    if isinstance(scope, _COMPREHENSIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    own, nested = _own_scope(scope)
    names = {n.id for n in own if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    names |= {n.name for n in own if isinstance(n, ast.ExceptHandler) and n.name}
    names |= {(a.asname or a.name).split(".")[0] for n in own
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    names |= {n.name for n in nested if hasattr(n, "name")}
    names |= {v for n in own if isinstance(n, ast.Global) for v in n.names}
    names -= {v for n in own if isinstance(n, ast.Nonlocal) for v in n.names}
    if not isinstance(scope, ast.ClassDef):
        args = scope.args
        names |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None}
    return names


def _reads(scope):
    """The names ``scope`` reads as its own or an enclosing scope's binding:
    its own loads and augmented-assignment targets, and what each nested
    scope reads and does not bind itself."""
    own, nested = _own_scope(scope)
    read = {n.id for n in own if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    read |= {n.target.id for n in own
             if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
    for inner in nested:
        read |= _reads(inner) - _binds(inner)
    return read


def _assigned_names(target):
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_names(elt.value if isinstance(elt, ast.Starred) else elt)


def _assigned_locals(nodes):
    """(name, line) of each local that ``nodes`` bind by assignment, an
    assignment expression or ``except … as``."""
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            yield from ((v.id, v.lineno) for t in node.targets for v in _assigned_names(t))
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            yield from ((v.id, v.lineno) for v in _assigned_names(node.target))


def test_no_function_assigns_a_local_it_never_reads():
    # a read by the function, or by a scope nested in it that does not bind
    # the name itself, counts; an augmented assignment reads its target, and
    # a leading underscore marks a name as deliberately unused
    unread = []
    for label, tree in _linted(MODULES + ["__init__"]):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own, _ = _own_scope(fn)
            read = _reads(fn)
            shared = {v for n in own if isinstance(n, (ast.Global, ast.Nonlocal))
                      for v in n.names}
            unread += ["%s:%d %s() assigns %s" % (label, line, fn.name, name)
                       for name, line in _assigned_locals(own)
                       if not (name.startswith("_") or name in read or name in shared)]
    assert not unread, unread


# Top-level names no other package code reaches, each kept for a reason
REACHED_FROM_OUTSIDE = {
    # criterion 7's domain round trip and the printed-bytes pins print with it
    "serialize_domain",
    # perfbench/tracing.py wraps these two to count and time them
    "canonical_rule_str",
    "backward",
}


def _references(nodes, plain=True):
    """How often each name is read among ``nodes``: as a plain name (unless
    ``plain`` is False), as an attribute, or as a string that looks it up (as
    ``make_labeller``'s ``globals()`` lookup does)."""
    refs = Counter()
    for n in nodes:
        if plain and isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs[n.value] += 1
    return refs


def _bound_names(node):
    """The names a module or class body statement binds: a function's or a
    class's name, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [var.id for t in targets for var in _assigned_names(t)]
    return []


def _unreached_names():
    """(module, name) of each top-level name no other package code reaches.
    __init__'s re-export and the tests do not count, so src holds only what a
    command runs; a definition's reads of its own name do not count either."""
    trees = [_tree(name) for name in MODULES]
    refs = _references(n for tree in trees for n in ast.walk(tree))
    for module, tree in zip(MODULES, trees):
        for node in tree.body:
            own = _references(ast.walk(node))
            yield from ((module, name) for name in _bound_names(node)
                        if refs[name] == own[name])


def test_every_top_level_name_is_reached_from_package_code():
    unreached = ["%s.%s" % (module, name) for module, name in _unreached_names()
                 if name not in REACHED_FROM_OUTSIDE]
    assert not unreached, unreached


def _classes(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]


# Class members no other package code reads, each kept for a reason (none)
MEMBERS_KEPT = set()


def _unread_members():
    """"module.Class.member" of each class member no other package code reads.
    A method, property or class attribute (dataclass fields included) is read
    outside its own definition, as an attribute or by a string; a plain name
    is some local or global, not the member, so it does not count.  Dunders
    are called by Python itself, and the tests do not count."""
    trees = [_tree(name) for name in MODULES]
    refs = _references((n for tree in trees for n in ast.walk(tree)), plain=False)
    for module, tree in zip(MODULES, trees):
        for cls in _classes(tree):
            for node in cls.body:
                own = _references(ast.walk(node), plain=False)
                yield from ("%s.%s.%s" % (module, cls.name, name) for name in _bound_names(node)
                            if not name.startswith("__") and refs[name] == own[name])


def test_every_class_member_is_read_by_package_code():
    unread = [label for label in _unread_members() if label not in MEMBERS_KEPT]
    assert not unread, unread


def _functions(tree):
    """(qualified name, enclosing class or None, node) of every function and
    lambda in ``tree``."""
    todo = [(node, "", None) for node in tree.body]
    while todo:
        node, prefix, cls = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += [(n, prefix + node.name + ".", node) for n in node.body]
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            yield name, cls, node
            prefix, cls = name + ".", None
        todo += [(n, prefix, cls) for n in ast.iter_child_nodes(node)]


def _defaults(tree):
    """(qualified name, callee name, positional index or None, parameter) of
    every defaulted parameter and dataclass field in ``tree``: the name its
    callers call, and where a positional argument fills it (None for a
    keyword-only one).  Callers do not pass a method's ``self`` or ``cls``,
    and they call ``__init__`` by its class's name."""
    for cls in _classes(tree):
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            for i, s in enumerate(fields):
                if s.value is not None:
                    yield cls.name, cls.name, i, s.target.id
    for qual, cls, fn in _functions(tree):
        args = fn.args
        positional = args.posonlyargs + args.args
        if cls is not None and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        callee = cls.name if qual.endswith(".__init__") else getattr(fn, "name", None)
        qual = qual.replace(".__init__", "")
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], first):
            yield qual, callee, i, a.arg
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield qual, callee, None, a.arg


def _omits(call, index, param):
    """True when ``call`` may leave ``param`` to its default: neither a
    keyword nor a positional argument names it (a call through ``*`` or
    ``**`` may)."""
    if any(k.arg == param for k in call.keywords):
        return False
    if any(k.arg is None for k in call.keywords) or \
            any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is None or len(call.args) <= index


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


# Defaults no call in src, perfbench or tests uses, each kept for a reason
# (none)
DEFAULTS_KEPT = set()


def _unused_defaults():
    """"module.function: parameter" of each default that no call in src,
    perfbench or the tests leaves to its value.  Calls match by the callee's
    name, so a call to another function of the same name counts too (the rule
    errs towards passing)."""
    calls = {}
    for root in (PACKAGE, TESTS, TESTS.parent / "perfbench"):
        for path in root.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    calls.setdefault(_callee(node), []).append(node)
    for module in MODULES:
        for qual, callee, index, param in _defaults(_tree(module)):
            if not any(_omits(c, index, param) for c in calls.get(callee, ())):
                yield "%s.%s: %s" % (module, qual, param)


def test_every_default_is_used_by_some_call():
    # a default every caller overrides is a second copy of the value the
    # callers state
    unused = [label for label in _unused_defaults() if label not in DEFAULTS_KEPT]
    assert not unused, unused


# Parameters their function never reads, each kept for a reason
PARAMETERS_UNREAD = {
    # argparse calls error(message) and fixes that signature
    "cli._Parser.error": {"message"},
    # every LL shares the (lls, hla, goal, hls) call protocol; the scripted
    # skill reads the env's live state
    "runner._make_ll.<lambda>": {"lls", "goal", "hls"},
}


def _unread_parameters():
    """"module.function: parameter" of each parameter its function never
    reads.  A read by the body, or by a scope nested in it that does not bind
    the name itself, counts; self, cls and a leading underscore mark a
    parameter as deliberately unread."""
    for module in MODULES:
        for qual, _cls, fn in _functions(_tree(module)):
            read = _reads(fn) | {"self", "cls"}
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from ("%s.%s: %s" % (module, qual, a.arg) for a in params
                        if a.arg not in read and not a.arg.startswith("_"))


def _allowed_parameters():
    return {"%s: %s" % (qual, param)
            for qual, params in PARAMETERS_UNREAD.items() for param in params}


def test_every_parameter_is_read_by_its_function():
    allowed = _allowed_parameters()
    unread = [label for label in _unread_parameters() if label not in allowed]
    assert not unread, unread


def test_every_allow_list_entry_is_still_needed():
    # an entry whose finding is gone (its function, parameter, name or import
    # deleted, or now read) gives a reason that no longer holds, and would
    # excuse a later finding of the same name without anyone reading it
    stale = sorted(_allowed_parameters() - set(_unread_parameters()))
    stale += sorted(REACHED_FROM_OUTSIDE - {name for _, name in _unreached_names()})
    stale += sorted(MEMBERS_KEPT - set(_unread_members()))
    stale += sorted(DEFAULTS_KEPT - set(_unused_defaults()))
    taken = {(module, attr) for module in MODULES + ["__init__"]
             for _, attr, listable in _private_names_taken(module) if listable}
    stale += sorted("%s: %s" % (module, attr) for module, names in PRIVATE_IMPORTS.items()
                    for attr in names if (module, attr) not in taken)
    assert not stale, stale


# The package's settable values at most: a change that adds one raises this
# bound and says why in CHANGES.md
SETTABLE_VALUES = 82


def test_settable_values_do_not_grow():
    # defaulted parameters, defaulted class fields and add_argument calls,
    # counted over src/bison as the ROADMAP counts them
    count = 0
    for name in MODULES + ["__init__"]:
        for node in ast.walk(_tree(name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
            elif isinstance(node, ast.Call) and _callee(node) == "add_argument":
                count += 1
    assert count <= SETTABLE_VALUES, count
