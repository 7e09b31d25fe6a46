import os

import pytest

# cli first: the suite then runs, and forks its `verify all` lanes, with the
# one-thread BLAS default of the command line
from nonembed import cli  # isort: skip
from nonembed import bvp, ruled


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fails a test after which this process has a child that is running
    or unreaped, such as a `verify all` lane."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child {pid} unreaped" if pid
                else "the test left a child process running")


@pytest.fixture(scope="session")
def ctx():
    """The pipeline stages of `nonembed verify` at the default config:
    K = 4, pentagon resolution 192, margin 0.05, tail radius e^{-8}/2 at
    grid_n = 512, mu and the annulus stack at n_max = 8."""
    return cli.PipelineContext(cli.RunConfig())


@pytest.fixture(scope="session")
def selected4(ctx):
    return ctx.selected


@pytest.fixture(scope="session")
def pentagon4(ctx, selected4):
    """The system `select_N` solved for `selected4`, which it does not keep."""
    return bvp.pentagon_problem(selected4.geom, ctx.cfg.pentagon_resolution)


@pytest.fixture(scope="session")
def tail4(ctx):
    return ctx.tail


@pytest.fixture(scope="session")
def gen_surface():
    return ruled.generate_surface(0.5, 0.05, seed=7)


@pytest.fixture(scope="session")
def extended(gen_surface):
    return ruled.extend_ruled(gen_surface.sample(n=257), -1.0, 2.0)


@pytest.fixture(scope="session")
def mu8(ctx):
    return ctx.mu
