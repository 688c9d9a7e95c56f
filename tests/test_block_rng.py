"""The block-sampling determinism contract and the BlockCursor.

The vectorized event core pregenerates service times and arrival gaps
in NumPy blocks instead of drawing them one scalar at a time. That is
only sound because, for the opted-in families, one ``sample(rng,
size=n)`` call consumes the generator's bit stream in exactly the same
order as ``n`` successive scalar ``sample(rng)`` calls — so a
cursor-fed simulation is bit-identical to the scalar-draw engine it
replaced. These tests pin that contract family by family, the
``BlockCursor`` refill mechanics, and the safety flags of the families
that must stay on the scalar path.
"""

import numpy as np
import pytest

from repro.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    Mixture,
    Pareto,
    Uniform,
    Weibull,
)
from repro.exceptions import ModelValidationError
from repro.simulation.rng import BlockCursor, RngStreams, fnv1a64

# Every family that opts into block pregeneration (block_sampling_safe
# = True), with non-trivial parameters. If a new family opts in, add it
# here — the contract test below is the gate.
BLOCK_SAFE = [
    Exponential(rate=2.5),
    Uniform(low=0.2, high=1.7),
    Gamma(k=2.3, rate=1.9),
    Erlang(k=3, rate=4.0),
    Pareto(alpha=2.8, xm=0.5),
    LogNormal(mean=1.2, scv=1.8),
    Weibull(k=1.6, lam=0.9),
    Deterministic(0.75),
    Exponential(rate=2.0).scaled(0.4),  # elementwise wrapper delegates
    Gamma(k=1.5, rate=2.0).shifted(0.3),
]

ids = [repr(d) for d in BLOCK_SAFE]


@pytest.mark.parametrize("dist", BLOCK_SAFE, ids=ids)
def test_block_draw_equals_scalar_draws(dist):
    """One size=n block consumes the bit stream exactly like n scalars."""
    assert dist.block_sampling_safe
    n = 257
    block = np.asarray(dist.sample(np.random.default_rng(42), n))
    rng = np.random.default_rng(42)
    scalars = np.array([float(dist.sample(rng)) for _ in range(n)])
    np.testing.assert_array_equal(block, scalars)


@pytest.mark.parametrize("dist", BLOCK_SAFE, ids=ids)
def test_cursor_matches_scalar_engine(dist):
    """A BlockCursor is bit-identical to scalar draws across refills."""
    block_size = 64
    n = 3 * block_size + 17  # several refills plus a partial block
    cursor = BlockCursor(np.random.default_rng(7), dist.sample, block_size=block_size)
    from_cursor = [cursor() for _ in range(n)]
    rng = np.random.default_rng(7)
    scalars = [float(dist.sample(rng)) for _ in range(n)]
    assert from_cursor == scalars


def test_cursor_refill_boundary_is_invisible():
    """Values straddling a refill come from one continuous stream."""
    dist = Exponential(rate=1.0)
    cursor = BlockCursor(np.random.default_rng(0), dist.sample, block_size=4)
    sequence = [cursor() for _ in range(10)]
    direct = np.random.default_rng(0)
    blocks = np.concatenate([dist.sample(direct, 4) for _ in range(3)])
    assert sequence == blocks[:10].tolist()


def test_cursor_blocks_start_small_and_double_to_block_size():
    sizes = []

    def draw(rng, n):
        sizes.append(n)
        return rng.random(n)

    cursor = BlockCursor(np.random.default_rng(0), draw, block_size=300)
    for _ in range(64 + 128 + 256 + 300 + 1):
        cursor()
    assert sizes == [64, 128, 256, 300, 300]
    assert BlockCursor(np.random.default_rng(0), draw).block_size == 4096


def test_cursor_rejects_bad_block_size():
    with pytest.raises(ModelValidationError):
        BlockCursor(np.random.default_rng(0), Exponential(1.0).sample, block_size=0)


def test_unsafe_families_stay_scalar():
    """Branch-then-draw families must NOT opt in: their block path
    (all branch choices, then all branch draws) interleaves the bit
    stream differently from the scalar path."""
    h2 = HyperExponential.balanced_from_mean_scv(mean=1.0, scv=4.0)
    mix = Mixture(probs=[0.3, 0.7], components=[Exponential(1.0), Exponential(5.0)])
    assert not h2.block_sampling_safe
    assert not mix.block_sampling_safe
    # And the divergence is real, not hypothetical:
    n = 50
    block = np.asarray(h2.sample(np.random.default_rng(5), n))
    rng = np.random.default_rng(5)
    scalars = np.array([float(h2.sample(rng)) for _ in range(n)])
    assert not np.array_equal(block, scalars)


def test_hyperexponential_scalar_fast_path_is_bit_exact():
    """The simulator's inlined H2 draw (CDF searchsorted + scaled
    standard exponential) consumes the stream exactly like the
    reference choice()+exponential() pair."""
    h2 = HyperExponential(probs=[0.25, 0.75], rates=[4.0, 0.8])
    rng_fast = np.random.default_rng(11)
    fast = [float(h2.sample(rng_fast)) for _ in range(200)]
    rng_ref = np.random.default_rng(11)
    ref = []
    for _ in range(200):
        branch = int(rng_ref.choice(2, p=h2.probs))
        ref.append(float(rng_ref.exponential(scale=1.0 / h2.rates[branch])))
    assert fast == ref


def test_wrappers_delegate_block_safety():
    safe = Exponential(1.0)
    unsafe = HyperExponential.balanced_from_mean_scv(1.0, 2.0)
    assert safe.scaled(2.0).block_sampling_safe
    assert safe.shifted(0.1).block_sampling_safe
    assert not unsafe.shifted(0.1).block_sampling_safe
    # HyperExponential.scaled returns a (still unsafe) HyperExponential.
    assert not unsafe.scaled(2.0).block_sampling_safe


def test_fnv1a64_digest_is_stable_and_cached():
    # Reference recomputation, independent of the module's cache.
    def ref(name):
        digest = 0xCBF29CE484222325
        for ch in name.encode():
            digest = ((digest ^ ch) * 0x100000001B3) & ((1 << 64) - 1)
        return digest

    for name in ("", "arrival.web", "service.db.batch", "x" * 100):
        assert fnv1a64(name) == ref(name)
        assert fnv1a64(name) == fnv1a64(name)  # cache hit, same value


def test_streams_unaffected_by_block_consumption():
    """Pulling a cursor on one stream never perturbs another stream —
    the common-random-numbers property the engine relies on."""
    streams_a = RngStreams(3)
    cursor = BlockCursor(streams_a.stream("svc"), Exponential(2.0).sample, block_size=8)
    for _ in range(20):
        cursor()
    arrivals_a = streams_a.stream("arrivals").random(6)
    arrivals_b = RngStreams(3).stream("arrivals").random(6)
    np.testing.assert_array_equal(arrivals_a, arrivals_b)
