import os
from pathlib import Path

import pytest

from bison.envs import EnvConfig, env_domain, generate_demos, make_labeller
from bison.learn import learn_hl_policy

# pyproject's pythonpath puts src on this process's path; the CLI tests run
# `python -m bison.cli` in child processes, which find it through PYTHONPATH
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def blocks_domain():
    return env_domain("blocks")


@pytest.fixture(scope="session")
def pickplace_domain():
    return env_domain("pickplace")


@pytest.fixture(scope="session")
def blocks_demos():
    """200 oracle demonstrations on 3-block instances (the §5-style corpus)."""
    return generate_demos(EnvConfig("blocks", 3, seed=5), 200)


@pytest.fixture(scope="session")
def blocks_policy(blocks_demos, blocks_domain):
    return learn_hl_policy(blocks_demos, blocks_domain, make_labeller("blocks"))


@pytest.fixture(scope="session")
def pickplace_demos():
    a = generate_demos(EnvConfig("pickplace", 1, seed=3, start_at_block=True), 1)
    b = generate_demos(EnvConfig("pickplace", 1, seed=3, start_at_block=False), 1)
    return a + b


@pytest.fixture(scope="session")
def pickplace_policy(pickplace_demos, pickplace_domain):
    return learn_hl_policy(pickplace_demos, pickplace_domain,
                           make_labeller("pickplace"))
