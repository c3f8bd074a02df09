import numpy as np

from phfe import verify


def test_weights_suite_accepts_refusal_on_all_unit_entropy_cells():
    # This draw holds a 2x1 matrix whose cells carry only the values 0 and
    # 1, so every cell has comprehensive entropy 1 and the weights are
    # rightly refused.
    result = verify._weights_suite(np.random.default_rng([721806937972, 7]), 25)
    assert result.passed, result.counterexample
