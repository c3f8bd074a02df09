"""Which modules may name the batched TOPSIS pass, read from the source with ``ast``.

``entropy._pairwise_columns`` and its column twins (``entropy._STEPS``, the ``_*_step``
kernels, ``elements._pi_column``) belong to the pass that ``mcdm._columns`` runs over a
decision matrix.  Only ``phfe.entropy`` and ``phfe.mcdm`` name ``_pairwise_columns``, and
``phfe.distance`` stays the element-to-element distance: it imports none of the pass.
``mcdm._columns`` builds the ideal hybrids in place, so ``phfe.mcdm`` never names
``hybrid``; the tests that refuse ``hybrid()`` during a pass rely on that.  ``phfe.verify``
keys its records by the library's own measure labels, so it names neither kernel table.
Every kernel and column step is compiled from ``entropy._KERNELS``; none is written by hand.
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
