"""The public surface: every name a module exports resolves."""

import ast
import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spherestruct

MODULES = ["spherestruct"] + [
    f"spherestruct.{info.name}" for info in pkgutil.iter_modules(spherestruct.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], name


# The package's layers, lowest first.  __init__ and __main__ are not ranked.
LAYERS = (
    "cyclic", "levine", "rationals", "tables", "bp", "ltheory", "structset",
    "consequences", "classify", "cli",
)
# Every layer but the command-line front end is a library module.
LIBRARY_MODULES = tuple(name for name in LAYERS if name != "cli")


def _fresh(code):
    # The stdout of code run in a new interpreter that imports the package
    # from this checkout.
    src = os.path.dirname(os.path.dirname(spherestruct.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_the_package_re_exports_each_library_module_all():
    # The lazy namespace's map of homes is the library modules' __all__
    # lists joined, in layer order, and each name it hands out is its home's.
    assert tuple(spherestruct._HOMES) == LIBRARY_MODULES == LAYERS[:-1]
    homes = {
        name: importlib.import_module(f"spherestruct.{name}") for name in LIBRARY_MODULES
    }
    assert spherestruct._HOMES == {name: tuple(home.__all__) for name, home in homes.items()}
    expected = ["__version__"]
    for home in homes.values():
        expected += home.__all__
    assert len(expected) == len(set(expected))
    assert spherestruct.__all__ == expected
    for name, home in homes.items():
        for exported in home.__all__:
            assert getattr(spherestruct, exported) is getattr(home, exported), exported
    # A first read binds the value, so later reads do not reach __getattr__.
    assert set(expected) <= set(vars(spherestruct))
    assert set(expected) <= set(dir(spherestruct))
    assert set(LIBRARY_MODULES) | {"cli"} <= set(dir(spherestruct))
    star = {}
    exec("from spherestruct import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(expected)
    # A submodule resolves on first read, with no import of it before.
    assert _fresh("import spherestruct; print(spherestruct.bp.t(16))") == "8128\n"
    with pytest.raises(AttributeError) as caught:
        spherestruct.x
    assert str(caught.value) == "module 'spherestruct' has no attribute 'x'"
    from spherestruct import TableError, image_f_residual, pairing_coefficient

    assert issubclass(TableError, ValueError)
    assert image_f_residual(4, 4).order == 7
    assert pairing_coefficient(4, 4) == 32
    for name in MODULES:
        exported = getattr(importlib.import_module(name), "__all__", [])
        assert not {"residual_split", "bp_from_table"} & set(exported), name


def _package_imports(tree):
    # (line, name) for each package name a module's code imports, at any
    # depth: a submodule, or a name read from the package root.
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").partition(".")[0] == "spherestruct":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                yield node.lineno, module.partition(".")[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "spherestruct":
                    yield node.lineno, rest.partition(".")[0] or "__init__"


# The names a module may read from the package root: the version, and
# the one list of public names.  Neither loads a layer.
ROOT_NAMES = ("__version__", "_HOMES")


def _tree(name):
    package = Path(spherestruct.__file__).resolve().parent
    return ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))


def test_each_module_imports_only_the_layers_below_it():
    # Imports run one way, so the package has no import cycle.  Any other
    # name read from the package root would hide the layer it comes from,
    # and could load layers above the reader.
    package = Path(spherestruct.__file__).resolve().parent
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert modules == sorted(LAYERS + ("__init__", "__main__"))
    wrong = []
    for rank, name in enumerate(LAYERS):
        for line, target in _package_imports(_tree(name)):
            below = target in LAYERS[:rank] or target in ROOT_NAMES
            if not below:
                wrong.append(f"{name}.py:{line} imports {target}")
    assert wrong == []


def test_each_library_module_all_is_its_homes_entry():
    # spherestruct._HOMES is the one list of public names: each library
    # module binds __all__ once, to its own entry, and reads nothing else
    # from the package root; cli exports nothing and reads only the
    # version, so a hand-typed list cannot come back.
    read = set()
    for name in LAYERS:
        tree = _tree(name)
        bound = [
            ast.unparse(node.value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if getattr(target, "id", None) == "__all__"
        ]
        root = {target for _, target in _package_imports(tree) if target not in LAYERS}
        read |= root
        if name == "cli":
            assert (bound, root) == ([], {"__version__"})
        else:
            assert (bound, root) == ([f"_HOMES[{name!r}]"], {"_HOMES"}), name
            home = importlib.import_module(f"spherestruct.{name}")
            assert home.__all__ is spherestruct._HOMES[name], name
    # So the layer test allows exactly what the modules read.
    assert read == set(ROOT_NAMES)


def _scoped_nodes(tree, kind=ast.Call, scope=""):
    # (dotted scope, node) for each node of the kind in a module, where the
    # scope names the functions and classes that enclose it.
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, kind):
            yield scope, child
        yield from _scoped_nodes(child, kind, inner)


def test_each_argument_rule_has_one_home():
    # One integer rule, cyclic._exact_int, behind every door's
    # ``type(x) is not int``; one order check per value class.
    package = Path(spherestruct.__file__).resolve().parent
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    # The text of the rule's error; S3S4Invariant's sigma, an int or an
    # element, has a message of its own ("must be an int or an element").
    text = "must be an int, got"
    homes = [name for name, source in sources.items() if text in source]
    assert [sources[name].count(text) for name in homes] == [1]
    assert homes == ["cyclic"]
    (rule,) = [
        node for node in trees["cyclic"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_exact_int"
    ]
    assert text in ast.get_source_segment(sources["cyclic"], rule)
    int_tests = sorted(
        f"{name}.{scope}"
        for name, tree in trees.items()
        for scope, call in _scoped_nodes(tree)
        if getattr(call.func, "id", None) == "isinstance"
        and any(getattr(node, "id", None) == "int" for node in ast.walk(call.args[1]))
    )
    # S3S4Invariant dispatches on an int or an element.
    assert int_tests == ["classify.S3S4Invariant.__init__", "cyclic._exact_int"]
    # One reader of a typed integer, tables._decimal: the only other int()
    # calls are the integer rule and the exit code of cli.main, and the
    # package's one json.loads hands a JSON number to the reader as its
    # digit text.
    int_calls = sorted(
        f"{name}.{scope}"
        for name, tree in trees.items()
        for scope, call in _scoped_nodes(tree)
        if getattr(call.func, "id", None) == "int"
    )
    assert int_calls == ["cli.main", "cyclic._exact_int", "tables._decimal"]
    loads = [
        (name, {word.arg: ast.unparse(word.value) for word in call.keywords})
        for name, tree in trees.items()
        for _, call in _scoped_nodes(tree)
        if getattr(call.func, "attr", None) == "loads"
    ]
    assert [(name, words["parse_int"]) for name, words in loads] == [("tables", "str")]
    gone = {
        "_reject_non_int", "_reject_order", "_reject_non_table", "_pairing_coefficient",
        "_checked_bp_dim",
    }
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in gone, name
            elif isinstance(node, ast.ImportFrom) and node.module == "cyclic":
                assert not [a.name for a in node.names if a.name.startswith("_reject")]
    orders = sorted(
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_checked_order"
    )
    assert orders == ["cyclic"]
    # One checker of a table entry, the gate, whose family copy runs the
    # entry rules; the JSON reader checks a dimension only on its way to
    # refusing an order below 1, so that a bad dimension is named first.
    checks = sorted(
        f"{scope}.{call.func.id}"
        for scope, call in _scoped_nodes(trees["tables"])
        if getattr(call.func, "id", None) in ("_check_dimension", "_check_order")
    )
    assert checks == [
        "_checked_family._check_dimension", "_checked_family._check_order",
        "_parse_entry._check_dimension",
    ]
    # subgroup_generated reads the order rule of CyclicGroup.
    assert not [name for name in sources if "ambient order must be" in sources[name]]
    # One table check.
    text = "table must be a GroupTable"
    assert sum(source.count(text) for source in sources.values()) == 1
    # One range rule, cyclic._checked_index, behind every index door, and
    # one cap rule, cyclic._past_cap, behind the caps of t and bernoulli;
    # no door spells out its own message.
    for template, home in (
        ("requires {name} >= {least}", "_checked_index"),
        ("requires {name} <= {most}", "_past_cap"),
    ):
        homes = {name: source.count(template) for name, source in sources.items()}
        assert {name: count for name, count in homes.items() if count} == {"cyclic": 1}
        (rule,) = [
            node for node in trees["cyclic"].body
            if isinstance(node, ast.FunctionDef) and node.name == home
        ]
        assert template in ast.get_source_segment(sources["cyclic"], rule)
    # One display rule, cyclic._shown (with _shown_repr beside it, and
    # _shown_group, which names Z_n through it), for a caller's value in a
    # message: no other module defines one or its bound, its "<integer of"
    # form is spelled only there, and each message that prints a caller's
    # integer or group formats it only through _shown or _shown_group.
    displays = sorted(
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_shown")
    )
    assert displays == ["cyclic._shown", "cyclic._shown_group", "cyclic._shown_repr"]
    assert [name for name in sources if "_SHOWN_DIGITS =" in sources[name]] == ["cyclic"]
    forms = {name: source.count("<integer of") for name, source in sources.items()}
    assert {name: count for name, count in forms.items() if count} == {"cyclic": 1}
    shown = {
        "cyclic._checked_index": {"value"}, "cyclic._past_cap": {"value"},
        "cyclic._checked_order": {"value"},
        "bp.check_pair": {"p", "q"}, "consequences.image_f_residual": {"p", "q"},
        "consequences.forgetful_fiber": {"p", "q", "top_invariant"},
        "ltheory.theta_diff": {"p", "q", "u", "v", "w"},
        "classify.S4S4Manifold.__init__": {"u", "v"},
        "ltheory.LClass.__add__": {"self", "other"},
        "cyclic.CyclicElement._check_same_group": {"self", "other"},
        "cyclic.CyclicSubgroup.contains": {"self", "x"},
    }
    through, raw = set(), []
    for name, tree in trees.items():
        for scope, text in _scoped_nodes(tree, ast.JoinedStr):
            arguments = shown.get(f"{name}.{scope}", set())
            for part in text.values:
                names = {leaf.id for leaf in ast.walk(part) if isinstance(leaf, ast.Name)}
                if not (isinstance(part, ast.FormattedValue) and names & arguments):
                    continue
                called = getattr(getattr(part.value, "func", None), "id", None)
                if getattr(part.value, "attr", None) == "__name__":
                    continue  # a type's name, as in "x must be a ..., got int"
                if called in ("_shown", "_shown_group"):
                    through.add(f"{name}.{scope}")
                else:
                    raw.append(f"{name}.{scope}: {ast.unparse(part)}")
    assert raw == []
    assert through == set(shown)
    for text in (
        "t(i) requires", "bp_order(m) requires", "theta_order(n) requires",
        "pi_go(n) requires", "l_group(i) requires", "(k) requires k",
    ):
        assert not [name for name in sources if text in sources[name]], text
    table_tests = sorted(
        f"{name}.{scope}"
        for name, tree in trees.items()
        for scope, call in _scoped_nodes(tree)
        if getattr(call.func, "id", None) == "isinstance"
        and getattr(call.args[1], "id", None) == "GroupTable"
    )
    assert table_tests == ["tables._checked_table"]


def test_the_shape_of_a_pair_has_one_home():
    # bp._SHAPES decides the shape of a pair: no module of the package
    # takes a pair argument mod 4 (the ambient n % 4 and m % 4 are not
    # shapes), every ``& 3`` of one is a subscript of the table, and the
    # table is read by name.  Only normalize_dims and present, whose
    # result shows the order, test which factor is odd.
    package = Path(spherestruct.__file__).resolve().parent
    pair = {"p", "q", "np_", "nq", "a", "b"}
    wrong, parity = [], set()
    for path in sorted(package.glob("*.py")):
        name = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        indices = {
            id(node.slice) for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and "_SHAPES" in ast.unparse(node.value)
        }
        for scope, node in _scoped_nodes(tree, ast.BinOp):
            names = {leaf.id for leaf in ast.walk(node.left) if isinstance(leaf, ast.Name)}
            if not (names & pair and isinstance(node.right, ast.Constant)):
                continue
            test = (type(node.op), node.right.value)
            if test == (ast.Mod, 4) or test == (ast.BitAnd, 3) and id(node) not in indices:
                wrong.append(f"{name}.{scope}: {ast.unparse(node)}")
            elif test == (ast.Mod, 2):
                parity.add(f"{name}.{scope}")
        wrong += [
            f"{name}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_SHAPES"
        ]
    assert wrong == []
    assert parity == {"structset.normalize_dims", "structset.present"}


@pytest.mark.parametrize(
    "module", ["json", "dataclasses", "inspect", "fractions", "decimal", "numbers"]
)
def test_importing_the_package_does_not_load(module):
    # Only a table override (parse_table) and the CLI's --json envelope
    # need json, and each imports it where it is used.  The value classes
    # get their methods from cyclic._value, not from dataclasses, whose
    # import alone pulls in inspect, ast, dis and tokenize.  Only bernoulli
    # needs fractions, which pulls in decimal and numbers.  A bare import
    # loads no library module; then the CLI's import and a read of every
    # public name but bernoulli load none of these modules.
    code = (
        "import sys\n"
        "import spherestruct\n"
        "print(sorted(m for m in sys.modules if m.startswith('spherestruct.')))\n"
        f"print({module!r} in sys.modules)\n"
        "import spherestruct.cli\n"
        f"print({module!r} in sys.modules)\n"
        "for name in spherestruct.__all__:\n"
        "    if name != 'bernoulli':\n"
        "        getattr(spherestruct, name)\n"
        f"print({module!r} in sys.modules)\n"
        "spherestruct.bernoulli\n"
        f"print({module!r} in sys.modules)\n"
    )
    loaded_by_bernoulli = module in ("fractions", "decimal", "numbers")
    assert _fresh(code) == f"[]\nFalse\nFalse\nFalse\n{loaded_by_bernoulli}\n"


def test_import_builds_the_classifier_tables_from_t4_and_t8_only():
    # The S^3 x S^4 tables are built when spherestruct.classify is
    # imported (a bare import of the package builds nothing); they may
    # compute t_4 and t_8 (bP_8 and the pairing 8 t_4 t_4).  The chain
    # check of the built-in table asks t of 8, 12, 16 and 20 (bP_{n+1} for
    # its theta entries), and the import computes no other t.
    code = (
        "from spherestruct import bp, classify\n"
        "before = bp._t_multiple_of_4.cache_info()\n"
        "bp.t(4), bp.t(8), bp.t(12), bp.t(16), bp.t(20)\n"
        "after = bp._t_multiple_of_4.cache_info()\n"
        "tables = (classify._BP8_ELEMENTS, classify._S3S4_STABILIZERS, classify._S3S4_INERTIA)\n"
        "print(before.currsize, after.misses - before.misses,"
        " [len(table) == classify.BP8.order for table in tables])"
    )
    assert _fresh(code) == "5 0 [True, True, True]\n"


def test_bench_library_names_resolve():
    # The benchmark calls the library by the names in bench/ops.py; a
    # removed or renamed public name must fail here, not in a bench run.
    source = Path(__file__).resolve().parent.parent / "bench" / "ops.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    names = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LIBRARY_NAMES" for target in node.targets)
    )
    assert names
    missing = [name for name in names if not hasattr(spherestruct, name)]
    assert missing == []


def test_the_readme_library_example_runs():
    # The fenced ``>>>`` block under "Library use", run as a doctest
    # without its closing fence, which doctest would read as output.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(
        r"^## Library use\n\n```python\n(>>> .*?)^```$",
        readme.read_text(encoding="utf-8"),
        re.M | re.S,
    )
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted == block.count(">>> ") > 0
    assert result.failed == 0


def test_the_readme_layer_orders_are_homes():
    # README names the layer order twice: the API paragraph lists the
    # library modules, and the bp_order bullet the import order, cli last.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    (api,) = re.findall(r"in\s+layer\s+order\s+\(([^)]*)\)", readme)
    (imports,) = re.findall(r"import\s+one\s+way:\s+([^:]*?),\s+an\s+order", readme)
    assert tuple(re.findall(r"`(\w+)`", api)) == tuple(spherestruct._HOMES)
    assert tuple(re.findall(r"`(\w+)`", imports)) == (*spherestruct._HOMES, "cli")
