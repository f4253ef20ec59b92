"""The independent routes stay independent.

The library's correctness rests on pairs of routes that agree without
sharing code: remainder vs pointwise membership, the definitional vs the
recursive bracket, the exhaustive vs the divided-difference witness search,
the contracted vs the walked weighted sum, and the library vs
tests/oracles.py.  These tests build a static call graph of
src/nullgrid with ast and check that no route reaches the other.

A call is resolved by name alone, which over-approximates what can run: a
bare name goes to the function or class (its constructor) of that name
defined in the module or imported into it, an attribute goes to every
function and method of that name in the package, and an operator goes to
every method that implements it.  A reference that is not a call counts as one, since
the function may be called later.  A nested function belongs to the
function that defines it.  So "does not reach" here is a safe claim, and the
positive checks make sure the graph is not empty by mistake.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nullgrid"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

_OPERATORS = {
    ast.Add: ("__add__", "__radd__"),
    ast.Sub: ("__sub__", "__rsub__"),
    ast.Mult: ("__mul__", "__rmul__"),
    ast.Div: ("__truediv__", "__rtruediv__"),
    ast.FloorDiv: ("__floordiv__", "__rfloordiv__"),
    ast.Mod: ("__mod__", "__rmod__"),
    ast.Pow: ("__pow__", "__rpow__"),
    ast.USub: ("__neg__",),
    ast.Eq: ("__eq__",),
    ast.NotEq: ("__eq__", "__ne__"),
    ast.Lt: ("__lt__",),
}


def _names_used(node):
    """(bare names, attribute and operator-method names) that a function
    body refers to."""
    bare, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            bare.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        elif isinstance(sub, (ast.BinOp, ast.UnaryOp, ast.AugAssign)):
            attrs.update(_OPERATORS.get(type(sub.op), ()))
        elif isinstance(sub, ast.Compare):
            for op in sub.ops:
                attrs.update(_OPERATORS.get(type(op), ()))
    return bare, attrs


def _call_graph():
    """{qualified name: set of qualified names it may call}, qualified names
    being 'module.function' and 'module.Class.method'."""
    bodies = {}  # qualified name -> (module, def node)
    top = {}  # module -> {top-level name: qualified names it stands for}
    imports = {}  # module -> {local name: (module, name)}
    by_name = {}  # bare name -> qualified names of every def with that name
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(), str(path))
        top[mod], imports[mod] = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod}.{node.name}"
                bodies[qual] = (mod, node)
                top[mod][node.name] = {qual}
                by_name.setdefault(node.name, set()).add(qual)
            elif isinstance(node, ast.ClassDef):
                top[mod][node.name] = set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{mod}.{node.name}.{item.name}"
                        bodies[qual] = (mod, item)
                        by_name.setdefault(item.name, set()).add(qual)
                        if item.name in ("__init__", "__new__", "__post_init__"):
                            top[mod][node.name].add(qual)

    def resolve(mod, name, seen=()):
        if name in top[mod]:
            return top[mod][name]
        if name in imports[mod] and (mod, name) not in seen:
            src_mod, src_name = imports[mod][name]
            if src_mod in top:
                return resolve(src_mod, src_name, seen + ((mod, name),))
        return set()

    graph = {}
    for qual, (mod, node) in bodies.items():
        bare, attrs = _names_used(node)
        out = set()
        for name in bare:
            out |= resolve(mod, name)
        for name in attrs:
            out |= by_name.get(name, set())
        out.discard(qual)
        graph[qual] = out
    return graph


GRAPH = _call_graph()


def _reach(start):
    assert start in GRAPH, f"{start} is not defined in src/nullgrid"
    seen, todo = set(), [start]
    while todo:
        for callee in GRAPH[todo.pop()]:
            if callee not in seen:
                seen.add(callee)
                todo.append(callee)
    return seen


def _assert_apart(sources, targets):
    for source in sources:
        reached = _reach(source)
        for target in targets:
            assert target in GRAPH, f"{target} is not defined in src/nullgrid"
            assert target not in reached, f"{source} reaches {target}"


def test_graph_sees_the_calls_it_should():
    assert "polynomials._shift_raw" in _reach("ideals.grid_expansions")
    assert "polynomials._taylor_columns" in _reach("ideals.grid_expansions")
    assert "polynomials._rows" in _reach("ideals.grid_expansions")
    assert "polynomials._pack_rows" in _reach("ideals.grid_expansions")
    assert "polynomials._packed_dots" in _reach("ideals.grid_expansions")
    assert "polynomials._expansions" in _reach("ideals.grid_expansions")
    assert "polynomials._expansions" in _reach("polynomials.MultiPoly.shift")
    assert "polynomials._divmod_raw" in _reach("ideals.reduce_poly")
    assert "ideals.Multiset._generator_raw" in _reach("ideals.reduce_poly")
    assert "divdiff._coordinate_weights" in _reach("divdiff.weight_table")
    assert "ideals.grid_expansions" in _reach("divdiff.divided_difference_recursive")
    assert "ideals.Multiset._generator_raw" in _reach("divdiff.divided_difference")
    assert "polynomials._taylor_columns" in _reach("divdiff._contracted_sum")
    assert "divdiff._coordinate_weights" in _reach("divdiff._contracted_sum")
    assert "polynomials.MultiPoly.__mul__" in _reach("polynomials._Parser.term")
    assert "polynomials._inv_series" in _reach("divdiff.divided_difference")
    assert "polynomials._inv_series" in _reach("divdiff._coordinate_weights")
    assert "polynomials._mul_raw" in _reach("divdiff._coordinate_weights")


def test_weight_table_stays_off_the_recursion_and_the_remainder():
    _assert_apart(
        ["divdiff._coordinate_weights", "divdiff.weight_table"],
        ["divdiff.divided_difference_recursive", "ideals.reduce_poly"],
    )


def test_definitional_bracket_stays_off_the_expansions_and_the_weights():
    _assert_apart(
        ["divdiff.divided_difference"],
        [
            "ideals.grid_expansions",
            "polynomials._expansions",
            "polynomials._shift_raw",
            "polynomials._rows",
            "polynomials._pack_rows",
            "polynomials._packed_dots",
            "polynomials._taylor_columns",
            "divdiff.weight_table",
            "divdiff._coordinate_weights",
            "divdiff.divided_difference_recursive",
        ],
    )


def test_contraction_stays_off_the_remainder_the_recursion_and_the_table():
    _assert_apart(
        ["divdiff._contracted_sum"],
        [
            "ideals.reduce_poly",
            "ideals.Multiset._generator_raw",
            "polynomials._divmod_raw",
            "divdiff.divided_difference_recursive",
            "divdiff.weight_table",
            "divdiff._bracket_row",
            "polynomials._expansions",
            "polynomials._shift_raw",
            "polynomials._rows",
            "polynomials._pack_rows",
            "polynomials._packed_dots",
        ],
    )


def test_contraction_and_table_sum_stay_apart():
    _assert_apart(["divdiff._contracted_sum"], ["divdiff._weighted_sum"])
    _assert_apart(["divdiff._weighted_sum"], ["divdiff._contracted_sum"])


def test_witness_search_reads_coordinate_weights_not_the_table():
    assert "divdiff._coordinate_weights" in _reach("certificates.find_witness")
    _assert_apart(["certificates.find_witness"], ["divdiff.weight_table"])


def test_expansions_and_reduction_stay_apart():
    expansions = [
        "ideals.grid_expansions",
        "polynomials._expansions",
        "polynomials._shift_raw",
        "polynomials._rows",
        "polynomials._pack_rows",
        "polynomials._packed_dots",
        "polynomials._taylor_columns",
    ]
    reduction = ["polynomials._divmod_raw", "ideals.reduce_poly", "ideals.Multiset._generator_raw"]
    _assert_apart(expansions, reduction)
    # division keeps its own grouping of high terms, apart from _rows
    _assert_apart(reduction, expansions)


def test_series_inverse_stays_off_the_expansions_and_the_division():
    _assert_apart(
        ["polynomials._inv_series"],
        [
            "polynomials._shift_raw",
            "polynomials._rows",
            "polynomials._pack_rows",
            "polynomials._packed_dots",
            "polynomials._taylor_columns",
            "polynomials._divmod_raw",
            "ideals.grid_expansions",
            "polynomials._expansions",
        ],
    )


def test_recursive_bracket_stays_off_the_remainder_and_the_weights():
    _assert_apart(
        ["divdiff.divided_difference_recursive"],
        [
            "ideals.reduce_poly",
            "ideals.Multiset._generator_raw",
            "polynomials._divmod_raw",
            "divdiff.divided_difference",
            "divdiff._bracket_row",
            "divdiff.weight_table",
            "divdiff._coordinate_weights",
            "divdiff._contracted_sum",
            "divdiff._weighted_sum",
            "polynomials._inv_series",
        ],
    )


def test_sumset_and_value_set_stay_apart():
    assert "applications._max_sum" in _reach("applications.sumset")
    assert "applications._max_sum" in _reach("applications.vector_sumset")
    _assert_apart(["applications.sumset", "applications._max_sum"], ["applications.value_set"])
    _assert_apart(["applications.value_set"], ["applications.sumset", "applications._max_sum"])


def test_only_the_two_sumsets_reach_the_max_sum_rule():
    callers = {qual for qual in GRAPH if "applications._max_sum" in GRAPH[qual]}
    assert callers == {"applications.sumset", "applications.vector_sumset"}


def _top_module(name):
    return (name or "").split(".")[0]


def test_oracles_import_only_the_allowed_library_names():
    """Data types and random inputs only: an oracle that called a library
    route would stop being an independent check of it."""
    tree = ast.parse(ORACLES.read_text(), str(ORACLES))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _top_module(node.module) in ("nullgrid", "randgen"):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(_top_module(a.name) in ("nullgrid", "randgen") for a in node.names), node.lineno
    assert imported == {
        "nullgrid": {"CoverReport", "MultiPoly", "Multiset", "MultisetGrid"},
        "randgen": {"rand_grid", "rand_poly"},
    }


def test_no_library_module_imports_random_or_randgen():
    """Random instances are the tests' business: the library draws nothing."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not {_top_module(name) for name in names} & {"random", "randgen"}, f"{path.name} line {node.lineno}"


def test_oracles_use_no_private_library_name():
    tree = ast.parse(ORACLES.read_text(), str(ORACLES))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nullgrid"):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"oracles.py imports {private} from {node.module}"
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("nullgrid.") for a in node.names)
        elif isinstance(node, ast.Attribute):
            attr = node.attr
            dunder = attr.startswith("__") and attr.endswith("__")
            assert dunder or not attr.startswith("_"), f"oracles.py line {node.lineno} reads .{attr}"
