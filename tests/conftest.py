"""Fixtures shared by the solver and reduced-basis tests."""

import pytest

from hestoncal.mesh import Domain2D, assemble_blocks, build_mesh
from hestoncal.params import ParamBox
from hestoncal.rbm import GreedyConfig, make_training_grid, pod_angle_greedy_american
from hestoncal.solvers import TimeGrid


@pytest.fixture(scope="module")
def toy():
    space = build_mesh(Domain2D(), 16, 16)
    blocks = assemble_blocks(space)
    grid = TimeGrid(1.0, 20)
    return space, blocks, grid


@pytest.fixture(scope="module")
def toy_train():
    box = ParamBox(lower=(0.2, -0.7, 0.05, 0.5, 0.05), upper=(0.5, -0.2, 0.25, 2.0, 0.4))
    return make_training_grid(box, (2, 2, 2, 2, 2), 0.03)


@pytest.fixture(scope="module")
def toy_american(toy, toy_train):
    space, blocks, grid = toy
    return pod_angle_greedy_american(
        toy_train, space, blocks, grid, GreedyConfig(n_max=20, tol=1e-8)
    )
