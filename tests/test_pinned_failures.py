"""Validated configs that end with exit 1 on an invariant violation, pinned until the ROADMAP item named in each marker mends them.

Each case is a strict xfail: when the fault is mended, `widthlab widths`
exits 0, the case passes and so fails the suite until its marker goes.
"""

import pytest

from widthlab.cli import main

# the candidate grid equals the evaluation grid, so greedy picks every point
# where the power function is positive and the grid maximum of the p = inf
# upper row is 0 or rounding noise, below the certified d_Lp_lower row
GRID_MAXIMUM = "ROADMAP item 3: a p = inf upper row is a maximum over the evaluation grid, not the sup over the box"

PINNED = {
    # d_Lp_lower[n=3] = 0.079684429 exceeds I_Lp_upper[greedy-pinf, n=3] = 5.26835606e-09
    "bridge_nystrom_5_points": (
        GRID_MAXIMUM,
        "[kernel]\nid = bridge\n[quadrature]\npoints_per_axis = 70\n[spectrum]\nn_eigs = 10\nsource = nystrom\n"
        "[widths]\nn_grid = 1,2,3\ndense_n_max = 9\nstrategies = greedy\neval_points_per_axis = 5\n"
        "candidate_points_per_axis = 5\n[fit]\nwindow = 1,9\n",
    ),
    # the greedy p = inf upper row is 0 at n = 4
    "brownian_int_5_points": (
        GRID_MAXIMUM,
        "[kernel]\nid = brownian_int\n[quadrature]\npoints_per_axis = 8\n[spectrum]\nn_eigs = 8\n"
        "[widths]\nn_grid = 1,2,3,4\ndense_n_max = 7\nstrategies = greedy\neval_points_per_axis = 5\n"
        "candidate_points_per_axis = 5\n[fit]\nwindow = 1,7\n",
    ),
    # the greedy p = inf upper row is 0 at n = 4
    "gaussian_2d_2_points": (
        GRID_MAXIMUM,
        "[kernel]\nid = gaussian\ndim = 2\nlength_scale = 0.05\n[quadrature]\npoints_per_axis = 9\n[spectrum]\nn_eigs = 40\n"
        "[widths]\nn_grid = 1,2,3,4\ndense_n_max = 16\nstrategies = greedy\neval_points_per_axis = 2\n"
        "candidate_points_per_axis = 2\n[fit]\nwindow = 1,16\n",
    ),
    # the uniform p = 2 value rises from 4.33725e-07 at n = 4 to 8.53088e-07 at n = 8,
    # though the n = 8 grid contains the n = 4 grid
    "gaussian_wide_uniform": (
        "ROADMAP item 4: once rounding dominates, the computed power function is not an upper bound",
        "[kernel]\nid = gaussian\nlength_scale = 10\n[quadrature]\npoints_per_axis = 100\n[spectrum]\nn_eigs = 100\n"
        "source = nystrom\n[widths]\nstrategies = uniform\neval_points_per_axis = 257\ncandidate_points_per_axis = 257\n",
    ),
}


@pytest.mark.parametrize(
    "text",
    [pytest.param(text, marks=pytest.mark.xfail(strict=True, reason=reason), id=name) for name, (reason, text) in PINNED.items()],
)
def test_widths_exits_0(tmp_path, text):
    (tmp_path / "c.ini").write_text(text + f"[run]\nout_dir = {tmp_path / 'out'}\n")
    assert main(["widths", "--config", str(tmp_path / "c.ini")]) == 0
