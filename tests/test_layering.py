"""Which modules may name the batched TOPSIS pass, read from the source with ``ast``.

``entropy._pairwise_columns`` and its column twins (``entropy._STEPS``, the ``_*_step``
kernels, ``elements._pi_column``) belong to the pass that ``mcdm._columns`` runs over a
decision matrix.  Only ``phfe.entropy`` and ``phfe.mcdm`` name ``_pairwise_columns``, and
``phfe.distance`` stays the element-to-element distance: it imports none of the pass.
``mcdm._columns`` builds the ideal hybrids in place, so ``phfe.mcdm`` never names
``hybrid``; the tests that refuse ``hybrid()`` during a pass rely on that.  ``phfe.verify``
keys its records by the library's own measure labels, so it names neither kernel table.
Every kernel and column step is compiled from ``entropy._KERNELS``; none is written by hand.
JSON containers are checked by one rule: an object is a ``dict`` and an array a ``list``, the
two containers ``json.load`` yields, so no shape check asks for an abstract ``Mapping`` or
``Sequence``; every JSON array is checked by ``elements.json_list`` alone.  The range rule of a
weighted list (values in [0, 1], weights in (0, 1]) is raised by ``elements._check_weighted``
alone; ``canonicalize`` keeps its own, since raw probabilities may be 0.
"""

import ast
from pathlib import Path

from phfe.entropy import _KERNELS

SRC = Path(__file__).resolve().parents[1] / "src" / "phfe"


def _names(tree):
    """Every identifier a module spells: names, attributes, imports and definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.FunctionDef):
            yield node.name


def _scoped(tree, func=None):
    """(name of the innermost enclosing function, node) for every node below ``tree``."""
    for node in ast.iter_child_nodes(tree):
        yield func, node
        yield from _scoped(node, node.name if isinstance(node, ast.FunctionDef) else func)


def _message_tail(call):
    """The constant text that ends a call's first argument, a string or an f-string."""
    arg = call.args[0] if call.args else None
    if isinstance(arg, ast.JoinedStr):
        arg = arg.values[-1]
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""


def _tests_for_list(node):
    """Whether ``node`` is ``isinstance(x, ...list...)`` or compares ``type(x)`` with list."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        return "list" in set(_names(node.args[1]))
    if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
        if getattr(node.left.func, "id", None) == "type":
            return any("list" in set(_names(c)) for c in node.comparators)
    return False


def _batched(name):
    return name in ("_pairwise_columns", "_pi_column", "_STEPS") or name.endswith("_step")


def test_only_entropy_and_mcdm_name_the_batched_walk():
    naming = {
        f"phfe.{path.stem}"
        for path in SRC.glob("*.py")
        if "_pairwise_columns" in _names(ast.parse(path.read_text(), str(path)))
    }
    assert naming == {"phfe.entropy", "phfe.mcdm"}


def test_distance_imports_nothing_of_the_batched_pass():
    tree = ast.parse((SRC / "distance.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not [name for name in imported if _batched(name)]


def test_mcdm_names_no_hybrid():
    tree = ast.parse((SRC / "mcdm.py").read_text())
    assert "hybrid" not in set(_names(tree))


def test_verify_reads_the_library_labels():
    tree = ast.parse((SRC / "verify.py").read_text())
    assert not {"_FUZZINESS", "_NONSPECIFICITY"} & set(_names(tree))


def test_no_kernel_or_step_is_written_by_hand():
    tree = ast.parse((SRC / "entropy.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_pairwise" in defined and len(_KERNELS) == 5
    assert not [name for name in defined if name[1:] in _KERNELS or name.endswith("_step")]


def test_no_shape_check_names_an_abstract_container():
    checked = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                checked.append((path.stem, set(_names(node.args[1]))))
    assert [stem for stem, names in checked if {"dict", "list"} & names]
    assert not [(stem, names) for stem, names in checked if {"Mapping", "Sequence"} & names]


def test_the_range_rule_is_raised_in_one_place():
    # verify's predicates compare against the same bounds but raise nothing.
    raising = {
        (path.stem, func)
        for path in SRC.glob("*.py")
        for func, node in _scoped(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "OutOfRangeError"
        and _message_tail(node.exc).endswith(("outside [0, 1]", "outside (0, 1]"))
    }
    assert raising == {("elements", "_check_weighted"), ("elements", "canonicalize")}


def test_json_arrays_are_checked_by_json_list_alone():
    # cli._round6 tests for lists to round output; it checks no input shape.
    checking = [
        (stem, func)
        for stem in ("elements", "mcdm")
        for func, node in _scoped(ast.parse((SRC / f"{stem}.py").read_text()))
        if _tests_for_list(node)
    ]
    assert checking == [("elements", "json_list")]
