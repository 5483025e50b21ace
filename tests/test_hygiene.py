"""Static hygiene of the package source, read with ``ast`` only: every import
is used, every ``__all__`` entry names something the module defines, every
def and class is referenced somewhere in the repository's code, every optional
parameter is passed by some call, numbers from outside are type-checked
only by the two checkers in ``densities``, each kind of random stream is
drawn by one function of ``rng`` and keeps its number, no module but ``rng``
reaches ``numpy.random``, ``rng`` builds its generators at one call site and
on SFC64 alone, no method of a density takes a matrix product, no
subclass of a concrete density family reimplements it, a module reads no
private name of another beyond a short allowlist, and every solver config
field but ``threads`` is hashed."""
import ast
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stefanlab"
MODULES = sorted(SRC.glob("*.py"))
#: where a reference to a package definition may come from
CODE_DIRS = ("src", "tests", "demos", "benchmarks")
#: definitions only called from outside the repository: argparse calls ``error``
CALLED_FROM_OUTSIDE = {"_Parser.error"}
#: the only functions that may test a value against ``numbers`` types or bool
NUMBER_CHECKERS = {"_check_int", "_check_real"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Name bound by each import in the module, except ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names | set(_imported(tree))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all_entries(tree))
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_all_entries_resolve(path):
    tree = _tree(path)
    missing = sorted(set(_all_entries(tree)) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def _definitions(node, prefix=""):
    """(qualified name, name, line) of every def and class under node; methods
    and nested functions are qualified by what encloses them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name, child.lineno
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _referenced_names():
    """Every name, attribute, imported name and whole string constant in the
    repository's code."""
    names = set()
    for top in CODE_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_definition_is_referenced():
    used = _referenced_names()
    unused = [f"{path.name}: {qual} (line {line})"
              for path in MODULES for qual, name, line in _definitions(_tree(path))
              if not (name.startswith("__") and name.endswith("__"))
              and qual not in CALLED_FROM_OUTSIDE and name not in used]
    assert not unused, f"definitions nothing references: {unused}"


def _is_number_type_test(node):
    """A use of the ``numbers`` module or an ``isinstance(..., bool)`` call."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "numbers"
    if isinstance(node, ast.ImportFrom):
        return node.module == "numbers"
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        types = node.args[1]
        types = types.elts if isinstance(types, ast.Tuple) else [types]
        return any(isinstance(t, ast.Name) and t.id == "bool" for t in types)
    return False


def _number_type_tests(node, in_checker=False):
    """Line of every number type test under node outside NUMBER_CHECKERS."""
    for child in ast.iter_child_nodes(node):
        inside = in_checker or (isinstance(child, ast.FunctionDef)
                                and child.name in NUMBER_CHECKERS)
        if not inside and _is_number_type_test(child):
            yield child.lineno
        yield from _number_type_tests(child, inside)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_numbers_are_type_checked_only_by_the_checkers(path):
    lines = sorted(set(_number_type_tests(_tree(path))))
    assert not lines, (f"{path.name}: number type tests outside {sorted(NUMBER_CHECKERS)} "
                       f"at lines {lines}; call the checkers instead")


#: optional parameters that no call passes, kept on purpose: the benchmark's
#: tracer looks ``adaptive_simpson`` up by name until it is deleted
NEVER_PASSED_ALLOWED = {"adaptive_simpson.tol", "adaptive_simpson.max_intervals"}


def _optional_parameters(node, in_class=False):
    """(callable name, parameter, call position or None, line) of every
    parameter with a default under node. A method's positions skip ``self``,
    and ``__init__`` is called by its class's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            for name, param, pos, line in _optional_parameters(child, True):
                yield (child.name if name == "__init__" else name), param, pos, line
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            skip = 1 if in_class and positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                yield child.name, positional[i].arg, i - skip, positional[i].lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield child.name, arg.arg, None, arg.lineno
            yield from _optional_parameters(child)
        else:
            yield from _optional_parameters(child, in_class)


def _passed_parameters():
    """(callable name, keyword or position) of every argument any call in the
    repository's code passes; a ``*args`` or ``**kwargs`` passes everything."""
    passed = set()
    for top in CODE_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                        k.arg is None for k in node.keywords):
                    passed.add((name, "*"))
                passed.update((name, i) for i in range(len(node.args)))
                passed.update((name, k.arg) for k in node.keywords)
    return passed


def test_every_optional_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant: write it as one
    passed = _passed_parameters()
    never = [f"{path.name}: {name}.{param} (line {line})"
             for path in MODULES for name, param, pos, line in _optional_parameters(_tree(path))
             if f"{name}.{param}" not in NEVER_PASSED_ALLOWED
             and not {(name, param), (name, pos), (name, "*")} & passed]
    assert not never, f"optional parameters no call passes: {never}"


def _draw_functions():
    """The public functions of ``rng``: every draw of a stream goes through one
    of them. They share one engine, ``stream``, but read it differently
    (``uniform_block`` its ``random``, the others its ``standard_normal``), so
    each counts as its own way to draw."""
    return {node.name for node in _tree(SRC / "rng.py").body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _stream_parameters(trees, draws):
    """{callable: (position of its stream argument, draw function)} for the draw
    functions and, to a fixed point, every function that passes one of its own
    parameters on as the stream argument of one of those."""
    known = {name: (1, name) for name in draws}  # (seed, kind, block, n, ...)
    functions = [node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name not in draws]
    grew = True
    while grew:
        grew = False
        for fn in functions:
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call) or _call_name(call) not in known:
                    continue
                pos, draw = known[_call_name(call)]
                arg = call.args[pos] if pos < len(call.args) else None
                if isinstance(arg, ast.Name) and arg.id in params:
                    entry = (params.index(arg.id), draw)
                    assert known.get(fn.name, entry) == entry, f"{fn.name} forwards two streams"
                    grew |= fn.name not in known
                    known[fn.name] = entry
    return known


def _stream_generators():
    """{stream kind: the draw functions that draw it} over the package source,
    from every ``rng.<KIND>`` argument of a call."""
    trees = {path.name: _tree(path) for path in MODULES}
    draws = _draw_functions()
    forwards = _stream_parameters(trees.values(), draws)
    generators = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "rng":
                pytest.fail(f"{name}:{node.lineno}: import rng itself; stream kinds are "
                            "read as rng.<KIND>")
            if not isinstance(node, ast.Call):
                continue
            for pos, arg in enumerate(node.args):
                if (isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
                        and arg.value.id == "rng" and arg.attr.isupper()):
                    callee = _call_name(node)
                    where = f"{name}:{node.lineno}"
                    assert callee in forwards and forwards[callee][0] == pos, (
                        f"{where}: rng.{arg.attr} passed to {callee}, which draws no stream")
                    generators.setdefault(arg.attr, set()).add(forwards[callee][1])
    assert generators, "no stream kind found"
    return generators


def test_each_stream_kind_has_one_generator():
    # a second way to draw one stream would give two sets of numbers for one seed
    several = {kind: sorted(fns) for kind, fns in _stream_generators().items() if len(fns) > 1}
    assert not several, f"stream kinds drawn by more than one function: {several}"


def _numpy_random_uses(tree):
    """Lines where a module reaches ``numpy.random``: an import of it or of a
    name from it, or an attribute ``random`` of a name numpy is bound to."""
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in numpy_names)
        if hit:
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rng.py"],
                         ids=[p.name for p in MODULES if p.name != "rng.py"])
def test_only_rng_reaches_numpy_random(path):
    # every draw is a pure function of (seed, kind, block, lane) because every
    # generator is built in rng; a generator built elsewhere would escape that
    lines = sorted(_numpy_random_uses(_tree(path)))
    assert not lines, f"{path.name} reaches numpy.random at lines {lines}"


#: what builds a numpy generator, and the bit generators numpy offers
GENERATOR_BUILDERS = {"Generator", "default_rng", "RandomState"}
BIT_GENERATORS = {name for name, obj in vars(np.random).items()
                  if isinstance(obj, type) and issubclass(obj, np.random.BitGenerator)}


def _engine_uses(tree):
    """(lines that build a numpy generator, bit generators named) in a module."""
    names = [(node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    builds = sorted(line for line, name in names if name in GENERATOR_BUILDERS)
    return builds, {name for _, name in names if name in BIT_GENERATORS}


def test_rng_builds_one_generator_on_sfc64():
    # a second engine would give a second keying rule and a second set of
    # numbers to pin; every stream is one SFC64 generator built in one place
    builds, bit_generators = _engine_uses(_tree(SRC / "rng.py"))
    assert len(builds) == 1, f"rng.py builds a numpy generator at lines {builds}"
    assert bit_generators == {"SFC64"}


def test_the_engine_check_sees_a_second_engine():
    assert {"SFC64", "PCG64", "MT19937"} <= BIT_GENERATORS
    builds, bit_generators = _engine_uses(ast.parse(
        "import numpy as np\ng = np.random.Generator(np.random.SFC64(1))\n"
        "h = np.random.Generator(np.random.PCG64(1))\nr = np.random.default_rng(2)\n"))
    assert builds == [2, 3, 4] and bit_generators == {"SFC64", "PCG64"}


def test_the_numpy_random_check_sees_every_way_in():
    uses = _numpy_random_uses(ast.parse(
        "import numpy as np\nimport numpy.random\nfrom numpy import random\n"
        "from numpy.random import default_rng\nnp.random.default_rng(0)\n"))
    assert sorted(uses) == [2, 3, 4, 5]
    assert list(_numpy_random_uses(_tree(SRC / "rng.py")))


#: the number of every stream kind; a retired kind's number stays unused
STREAM_KINDS = {"GAUSS_STEP": 1, "BRIDGE": 2, "PICARD_PATHS": 3, "Y_SAMPLES": 4, "U_SUP": 6,
                "GAUSS_PATH": 7}


def test_stream_kinds_keep_their_numbers_and_are_all_drawn():
    # a renumbered kind would change every number drawn from it for the same seed
    kinds = {}
    for node in _tree(SRC / "rng.py").body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int):
            kinds.update((t.id, node.value.value) for t in node.targets
                         if isinstance(t, ast.Name) and t.id.isupper()
                         and not t.id.startswith("_"))
    assert kinds == STREAM_KINDS
    undrawn = sorted(set(kinds) - set(_stream_generators()))
    assert not undrawn, f"stream kinds drawn nowhere in the package: {undrawn}"


def test_every_config_field_but_threads_is_hashed():
    # config_hash names a result by the fields its solver reads (SOLVER_FIELDS); threads
    # is the one field that changes no result, so it is the one left out
    tree = _tree(SRC / "solver.py")
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "SolverConfig")
    fields = {node.target.id for node in config.body if isinstance(node, ast.AnnAssign)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SOLVER_FIELDS"])
    hashed = set().union(*ast.literal_eval(table).values())
    assert hashed <= fields, f"SOLVER_FIELDS names no config field: {sorted(hashed - fields)}"
    assert fields - hashed == {"threads"}


#: products whose summation order BLAS may pick by the size of the whole call
MATRIX_PRODUCTS = {"dot", "matmul", "inner", "tensordot", "vdot"}


def _density_classes(trees):
    """Every class that derives, directly or not, from ``Density``."""
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = {"Density"}
    grew = True
    while grew:
        grew = False
        for cls in classes:
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                     for b in cls.bases}
            if cls.name not in found and bases & found:
                found.add(cls.name)
                grew = True
    return [cls for cls in classes if cls.name in found]


def test_no_matrix_product_in_a_density_method():
    # a density acts pointwise: the value at a point may not depend on the
    # other points of the call, which a BLAS product's blocking can make it do
    found = []
    for cls in _density_classes(_tree(path) for path in MODULES):
        for node in ast.walk(cls):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)) or (
                    isinstance(node, ast.Call) and _call_name(node) in MATRIX_PRODUCTS):
                found.append(f"{cls.name} line {node.lineno}")
    assert not found, f"matrix products in density methods: {found}"


#: the one method a subclass of a concrete family may redefine: its spec names
#: the parameters it was built from, not its tables
REDEFINABLE = {"spec_dict"}


def _methods(cls):
    return {node.name for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_no_subclass_of_a_concrete_density_redefines_its_methods():
    # a subclass that redefines pdf, cdf or sample is a second implementation
    # of the density, which the two must then keep in step
    classes = {cls.name: cls for cls in _density_classes(_tree(path) for path in MODULES)}

    def parents(cls):
        return [b.id for b in cls.bases if isinstance(b, ast.Name) and b.id in classes]

    found = []
    for cls in classes.values():
        if not set(parents(cls)) - {"Density"}:
            continue
        inherited, todo = set(), parents(cls)
        while todo:
            base = classes[todo.pop()]
            inherited |= _methods(base)
            todo += parents(base)
        found += [f"{cls.name}.{name}" for name in sorted(_methods(cls) & inherited - REDEFINABLE)]
    assert not found, f"inherited density methods redefined: {found}"


#: the private names one module of the package may read from another: the two
#: number checkers, the path chunk size and the band density's one float lookup
SHARED_PRIVATE = {"_check_int", "_check_real", "_CHUNK", "_cell"}


def _private_reads(tree):
    """(name, line) of every private name the module imports from the package
    or reads as an attribute of an object other than ``self``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("stefanlab")):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"):
            names = [node.attr]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_modules_share_only_the_allowed_private_names():
    # a private name read across modules is an interface nobody declared
    found = [f"{path.name} line {line}: {name}" for path in MODULES
             for name, line in _private_reads(_tree(path)) if name not in SHARED_PRIVATE]
    assert not found, f"private names read across modules: {found}"
