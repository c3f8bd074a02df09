"""Helpers shared by the test modules; no test module imports another.

``KERNEL_PAIRS`` is one config per kernel pair, the oracle lookup turns a
library kernel or combiner into its transcription in ``oracle.py``,
``cell_sums`` reads one cell's TOPSIS sums off a one-cell matrix,
``grid_elements`` builds an exhaustive grid of small elements,
``_compensated_sum`` stands in for the built-in ``sum`` of Python 3.12 on, and
``run_cli``, ``output`` and ``refused`` run ``phfe`` in-process, the last two
holding a run to success or to the one refusal contract, ``check_refusal``.
"""

import builtins
import contextlib
import functools
import io
import itertools
import math

import oracle
from phfe import CriterionSpec, DecisionMatrix, EntropyConfig, all_configs, canonicalize
from phfe.cli import main
from phfe.mcdm import _columns


def configs_at(r):
    """The 18 configs of ``all_configs()`` with r1 at exponent ``r``, built by id; r2 takes none."""
    return [
        EntropyConfig.from_string(f"{c.label}@r={r!r}") if c.fuzziness.variant == "r1" else c
        for c in all_configs()
    ]


#: One config per kernel pair, r1 at r = 1 and r = 2: nine pairs.
KERNEL_PAIRS = list(
    {(c.fuzziness, c.nonspecificity): c for c in all_configs() + configs_at(2.0)}.values()
)

def cell_sums(a, config):
    """The six sums ``mcdm._columns`` keeps for the one-cell matrix of ``a``: the cell's
    (fuzziness, non-specificity), then its hybrid's with {1|1}, then with {0|1}."""
    matrix = DecisionMatrix(("x",), (CriterionSpec("c"),), ((a,),))
    return tuple(column[0] for pair in _columns(matrix, config) for column in pair)


def grid_elements(step):
    """Every canonical element of one to three values on the ``1/step`` grid with probabilities
    in quarters, by length, then values, then probabilities: 65 on the 1/4 grid, 369 on the 1/8."""
    grid = [k / step for k in range(step + 1)]
    return [
        canonicalize(zip(values, [p / 4 for p in parts]))
        for length in (1, 2, 3)
        for values in itertools.combinations(grid, length)
        for parts in itertools.product(range(1, 5), repeat=length)
        if sum(parts) == 4
    ]


_ORACLE = {
    "r2": oracle.r2,
    "f1": oracle.f1,
    "f2": oracle.f2,
    "f3": oracle.f3,
    "max": oracle.theta_max,
    "psum": oracle.theta_psum,
    "bsum": oracle.theta_bsum,
}


def oracle_fn(variant):
    """The oracle's transcription of a library kernel or combiner, r1 at its exponent."""
    if variant.variant == "r1":
        return functools.partial(oracle.r1, r=variant.r)
    return _ORACLE[variant.variant]


def oracle_config(config):
    """The oracle's (r_fn, f_fn, theta_fn) for a library config."""
    return tuple(map(oracle_fn, (config.fuzziness, config.nonspecificity, config.theta)))


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The built-in ``sum`` of Python 3.12 and later: Neumaier-compensated over floats.

    Integer and bool sums keep the plain built-in and their type.
    """
    items = list(iterable)
    if not any(isinstance(x, float) for x in items):
        return _BUILTIN_SUM(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def run_cli(argv):
    """``phfe.cli.main(argv)`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def output(argv):
    """Stdout of a run that exits 0 with nothing on stderr."""
    code, out, err = run_cli(argv)
    assert (code, err) == (0, ""), (code, err)
    return out


#: Python's own error phrasings: a refusal speaks in phfe's words instead.
_PYTHON_PHRASES = (
    "object is not", "indices must be", "has no attribute", "argument of type", "unhashable type"
)


def check_refusal(code, out, err):
    """The message of a clean refusal: exit 2, nothing on stdout, and on stderr one line
    ``error: <message>`` under 200 bytes, with no traceback and no Python phrasing."""
    assert (code, out) == (2, ""), (code, out, err)
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert len(err.encode()) < 200, err
    assert "Traceback" not in err and not any(p in err for p in _PYTHON_PHRASES), err
    return err[len("error: "):-1]


def refused(argv):
    """The message with which ``phfe`` refuses ``argv``, held to ``check_refusal``."""
    return check_refusal(*run_cli(argv))
