import glob
import random

import pytest

from palm.dataset import write_dataset
from palm.msh import MshPool
from palm.toyops import ToyTokenizer, TrainConfig, train

CORPUS = [
    b"the quick brown fox jumps over the lazy dog",
    b"pack my box with five dozen liquor jugs",
    b"how vexingly quick daft zebras jump",
    b"sphinx of black quartz judge my vow",
    b"the five boxing wizards jump quickly",
    b"jackdaws love my big sphinx of quartz",
]


@pytest.fixture
def corpus():
    return [CORPUS[i % len(CORPUS)] + b" #%d" % i for i in range(24)]


@pytest.fixture
def dataset_path(tmp_path, corpus):
    path = tmp_path / "data.palmds"
    write_dataset(path, corpus)
    return str(path)


@pytest.fixture
def tokenizer(corpus):
    return ToyTokenizer.build(corpus)


@pytest.fixture
def config():
    return TrainConfig(seed=11, epochs=2, sampling="shuffled")


@pytest.fixture
def model(corpus, config, tokenizer):
    return train("bigram", corpus, config, tokenizer)


@pytest.fixture
def rng():
    return random.Random(0xA1)


def random_records(rng, n, lo=16, hi=96):
    return [rng.randbytes(rng.randint(lo, hi)) for _ in range(n)]


def child_pids() -> set[int]:
    """Pids of this process's running and unreaped children, whichever of
    its threads started them."""
    pids: set[int] = set()
    for children in glob.glob("/proc/self/task/*/children"):
        with open(children) as f:
            pids.update(map(int, f.read().split()))
    return pids


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_session():
    """Every worker process a test or a server started must be stopped."""
    yield
    assert child_pids() == set()


@pytest.fixture(scope="session")
def msh_pool():
    """One multiset-hash worker pool shared by the whole session."""
    with MshPool() as pool:
        yield pool
