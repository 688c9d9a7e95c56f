"""Split-stream random number management.

Every stochastic component of a simulation run (each class's arrival
process, each station×class service sampler) gets its *own*
:class:`numpy.random.Generator`, spawned from one master
:class:`numpy.random.SeedSequence`. This gives:

* reproducibility — a run is a pure function of its seed;
* common random numbers — changing one tier's speed does not perturb
  the arrival pattern, which slashes the variance of configuration
  comparisons;
* statistically independent replications — replication ``r`` spawns
  from child ``r`` of the master sequence.

The **CRN contract** (pinned by ``tests/test_vrt.py``): a stream's
values depend only on ``(master seed, stream name)``, never on the
order streams are requested in or on which other streams exist. The
simulator names streams by *role* — ``arrivals/{class}``,
``service/{tier}/{class}``, ``routing/{class}`` — so two scenarios
that differ in tier speeds, server counts or scheduling discipline
consume **aligned** arrival and service streams: the ``j``-th service
demand drawn for class ``k`` at tier ``i`` comes from the same
underlying variates in both scenarios (speed only rescales it, since
``Distribution.scaled`` multiplies the same draw). This is what makes
:func:`repro.simulation.adaptive.compare_scenarios` paired differences
legitimate and tight.

**Antithetic pairing**: :meth:`RngStreams.replication_seed_pairs`
yields ``(primary, mirror)`` :class:`AntitheticSeed` pairs that share
one bit stream per named stream. Both members draw their uniforms,
exponentials and hyperexponential branches by *inverse transform* from
that shared uniform sequence — the mirror member sees ``1 - U``
wherever the primary sees ``U`` — inducing the negative within-pair
correlation the antithetic estimator in
:mod:`repro.simulation.vrt` exploits. Families without a cheap inverse
CDF (gamma, lognormal, ...) fall back to an *independent* member-
specific stream: the coupling weakens but both members remain exact
draws, so the pair-mean estimator stays unbiased.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.exceptions import ModelValidationError

__all__ = [
    "RngStreams",
    "AntitheticSeed",
    "CoupledGenerator",
    "BlockCursor",
    "fnv1a64",
]

_U64_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Stream names repeat across every replication of every experiment, so
# the FNV digest of each name is computed once per process, not once
# per replication (satellite fix: the byte loop used to run on every
# first access of a stream).
_DIGEST_CACHE: dict[str, int] = {}


def fnv1a64(name: str) -> int:
    """Cached 64-bit FNV-1a digest of a stream name.

    Pure-integer arithmetic; bit-identical to the original
    ``np.uint64`` byte loop (both reduce modulo 2^64 after each
    multiply).
    """
    digest = _DIGEST_CACHE.get(name)
    if digest is None:
        digest = _FNV_OFFSET
        for ch in name.encode():
            digest = ((digest ^ ch) * _FNV_PRIME) & _U64_MASK
        _DIGEST_CACHE[name] = digest
    return digest


#: Largest double strictly below 1.0; mirrored uniforms are clipped
#: here so inverse-CDF table lookups (``bisect_right`` against a CDF
#: whose last entry is 1.0) can never run off the end.
_ONE_BELOW = float(np.nextafter(1.0, 0.0))
#: Smallest positive double; floor for ``-log`` arguments (caps an
#: exponential variate at ~744.4 instead of producing ``inf``).
_TINY = 5e-324


@dataclass(frozen=True)
class AntitheticSeed:
    """One member of an antithetic replication pair.

    Both members of a pair carry the *same* child
    :class:`~numpy.random.SeedSequence`; ``mirror`` selects whether the
    member consumes the shared uniform stream directly (``False``) or
    reflected as ``1 - U`` (``True``). Feed it to :class:`RngStreams`
    (and hence to ``simulate(..., seed=...)``) in place of a plain
    seed.
    """

    seq: np.random.SeedSequence
    mirror: bool


class CoupledGenerator:
    """Inverse-transform generator view over one shared uniform stream.

    Overrides exactly the families the simulator draws through
    invertible CDFs — ``random``, ``uniform``, ``standard_exponential``
    and ``exponential`` — deriving each variate from a uniform ``U`` of
    the shared stream (the mirror member sees ``1 - U``). Every other
    method is delegated via ``__getattr__`` to an *independent*
    fallback generator whose seed is salted with the member flag, so
    non-invertible families (gamma, lognormal, ...) stay exact and the
    two members are simply uncorrelated there rather than spuriously
    positively correlated through shared bits.

    Not bit-compatible with a plain ``Generator`` under the same seed —
    ziggurat exponentials consume a variable number of bits per draw —
    which is fine: antithetic runs are an opt-in estimator mode, never
    a drop-in replacement for the default engine.
    """

    __slots__ = ("_shared", "_fallback", "_mirror")

    def __init__(self, seq: np.random.SeedSequence, mirror: bool):
        self._shared = np.random.default_rng(seq)
        # Salted sibling seed: same entropy, spawn key extended with a
        # member-specific component no stream-name digest can collide
        # with (stream digests occupy the previous key position).
        fallback = np.random.SeedSequence(
            entropy=seq.entropy,
            spawn_key=tuple(seq.spawn_key) + (2 + int(mirror),),
        )
        self._fallback = np.random.default_rng(fallback)
        self._mirror = mirror

    def random(self, size=None):
        u = self._shared.random(size)
        if not self._mirror:
            return u
        if size is None:
            return min(1.0 - u, _ONE_BELOW)
        return np.minimum(1.0 - u, _ONE_BELOW)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def standard_exponential(self, size=None):
        # -log(1 - V) with V the member's uniform: the primary consumes
        # U, the mirror 1-U, so the pair shares every branch decision
        # and their exponentials are antithetically coupled.
        w = 1.0 - self.random(size)
        if size is None:
            return -np.log(max(w, _TINY))
        return -np.log(np.maximum(w, _TINY))

    def exponential(self, scale=1.0, size=None):
        return scale * self.standard_exponential(size)

    def __getattr__(self, name):
        return getattr(self._fallback, name)


class RngStreams:
    """Named independent random streams under one master seed."""

    def __init__(self, seed: int | np.random.SeedSequence | AntitheticSeed = 0):
        self._mirror: bool | None = None
        if isinstance(seed, AntitheticSeed):
            self._seq = seed.seq
            self._mirror = seed.mirror
        elif isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            if not isinstance(seed, (int, np.integer)) or seed < 0:
                raise ModelValidationError(f"seed must be a non-negative integer, got {seed}")
            self._seq = np.random.SeedSequence(int(seed))
        self._streams: dict[str, np.random.Generator | CoupledGenerator] = {}
        # Deterministic per-name children: hash the name into a stable
        # spawn key so the same name always yields the same stream
        # regardless of request order. The parent's own spawn_key is
        # preserved so replication children stay independent.
        self._base_entropy = self._seq.entropy
        self._base_spawn_key = tuple(self._seq.spawn_key)

    def stream(self, name: str) -> np.random.Generator | CoupledGenerator:
        """The generator for ``name``, created on first use.

        The stream depends only on ``(master seed, name)``, not on the
        order streams are requested in — required for common random
        numbers across configurations that touch different components.
        Under an :class:`AntitheticSeed` the stream is a
        :class:`CoupledGenerator` over the pair's shared child
        sequence for this name.
        """
        if name not in self._streams:
            # Stable 64-bit digest of the name mixed into the seed tree.
            child = np.random.SeedSequence(
                entropy=self._base_entropy,
                spawn_key=self._base_spawn_key + (fnv1a64(name),),
            )
            if self._mirror is None:
                self._streams[name] = np.random.default_rng(child)
            else:
                self._streams[name] = CoupledGenerator(child, self._mirror)
        return self._streams[name]

    @staticmethod
    def replication_seeds(master_seed: int, n: int) -> list[np.random.SeedSequence]:
        """``n`` independent seed sequences for replications."""
        if n < 1:
            raise ModelValidationError(f"need at least one replication, got {n}")
        return np.random.SeedSequence(master_seed).spawn(n)

    @staticmethod
    def replication_seed_pairs(
        master_seed: int, n_pairs: int
    ) -> list[tuple[AntitheticSeed, AntitheticSeed]]:
        """``n_pairs`` antithetic ``(primary, mirror)`` seed pairs.

        Pair ``j`` shares child ``j`` of the same spawn sequence
        :meth:`replication_seeds` uses, so the primary members of an
        antithetic run sample the same seed tree as a plain run of
        ``n_pairs`` replications.
        """
        children = RngStreams.replication_seeds(master_seed, n_pairs)
        return [(AntitheticSeed(c, False), AntitheticSeed(c, True)) for c in children]


#: The largest block a :class:`BlockCursor` draws at once; the compiled
#: kernel's refill buffers hold this many values.
MAX_BLOCK_SIZE = 4096
#: A cursor's first block; each later one doubles, up to its block size.
_FIRST_BLOCK_SIZE = 64


def _blocks(rng, draw, size: int, block_size: int):
    """A stream's blocks, ``size`` values first, each later block twice
    the last, up to ``block_size``."""
    while True:
        yield draw(rng, size)
        size = min(2 * size, block_size)


class BlockCursor:
    """Refill-on-exhaustion cursor over block-pregenerated variates.

    Wraps one named stream's generator together with a vectorized draw
    function ``draw(rng, n) -> ndarray`` and hands the values out one
    scalar at a time. NumPy's ``Generator`` consumes its bit stream in
    exactly the same order for one ``size=n`` block draw as for ``n``
    successive scalar draws of the same family (the block-sampling
    determinism contract, pinned by ``tests/test_block_rng.py``), so a
    cursor-fed simulation is bit-identical to the scalar-draw engine it
    replaced — per-stream draw *order* is unchanged, which is what
    preserves :class:`RngStreams` reproducibility and common random
    numbers across configurations.

    Blocks are sized by use (:meth:`next_block`): a stream that takes a
    few dozen values draws a few dozen, and a long one soon draws
    ``block_size`` at a time. :attr:`take` returns the next value, and
    iterating the cursor yields the same values. Both run in C: a
    ``chain`` over each block's ``tolist()``, so the hot path hands out
    cached ``float`` objects with no Python frame per value and none of
    NumPy's scalar boxing. The chain holds the block generator, not the
    cursor, so a cursor is freed as soon as its last user drops it.
    """

    __slots__ = ("_blocks", "_values", "take", "block_size")

    def __init__(
        self,
        rng: np.random.Generator,
        draw: Callable[[np.random.Generator, int], np.ndarray],
        block_size: int = MAX_BLOCK_SIZE,
    ):
        if block_size < 1:
            raise ModelValidationError(f"block size must be >= 1, got {block_size}")
        self.block_size = block_size
        self._blocks = _blocks(rng, draw, min(_FIRST_BLOCK_SIZE, block_size), block_size)
        self._values = chain.from_iterable(map(np.ndarray.tolist, self._blocks))
        #: The next value, refilling when the block runs out.
        self.take: Callable[[], float] = self._values.__next__

    def next_block(self) -> np.ndarray:
        """The stream's next block of variates, bypassing the values the
        cursor holds: ``_FIRST_BLOCK_SIZE`` values first, each later
        block twice the last, up to ``block_size``. The cursor refills
        through the same blocks, and so does the compiled kernel's
        buffer for the stream, so both engines draw the same blocks."""
        return next(self._blocks)

    def __iter__(self) -> Iterator[float]:
        return self._values
