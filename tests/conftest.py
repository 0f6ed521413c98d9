import numpy as np
import pytest

from iofootprint import GeneratorConfig, build_economy, generate_economy

# Corpus used by the conservation, oracle-equivalence, and monotonicity
# properties: 100 seeded economies with sector counts spanning 1..200.
CORPUS_SEEDS = list(range(1, 101))


def corpus_sizes():
    rng = np.random.default_rng(20240801)
    sizes = rng.integers(1, 201, size=len(CORPUS_SEEDS))
    sizes[0] = 1    # pin both extremes into the corpus
    sizes[1] = 200
    return [int(n) for n in sizes]


@pytest.fixture(autouse=True)
def private_parse_cache(tmp_path_factory, monkeypatch):
    """Each test starts with an empty parse cache of its own.

    ``parse_table`` keeps the parsed text of each table file it reads in
    ``$XDG_CACHE_HOME/iofootprint``, so without this a test could load what
    an earlier test parsed and never run the reader it checks. The
    directory lies outside ``tmp_path``, whose contents tests inspect.
    """
    cache = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "iofootprint"


@pytest.fixture(scope="session")
def corpus():
    return [
        generate_economy(GeneratorConfig(n=n, seed=seed))
        for n, seed in zip(corpus_sizes(), CORPUS_SEEDS)
    ]


@pytest.fixture
def worked_economy():
    """The hand-checked 2-sector table used across modules."""
    return build_economy(
        ["s1", "s2"],
        [[100.0, 50.0], [30.0, 20.0]],
        [50.0, 50.0],
        money_unit="MU",
    )
