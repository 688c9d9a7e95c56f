"""Compiled (C) backend for the discrete-event simulation engine.

The hot event loop of :func:`repro.simulation.simulator.simulate` —
event dispatch from a sorted pending-event array, array-backed station
transitions, per-event statistics and the service/arrival/routing
variate draws — is reimplemented in ``_kernel.c``, compiled on demand
with the system C compiler, linked against NumPy's own ``libnpyrandom``
distribution library, and driven through :mod:`ctypes`.

Why C + ctypes rather than Numba: the container this project targets
ships only the base scientific stack (no Numba, no Cython) but always
has a C toolchain, and NumPy exports its C distribution functions
precisely for this kind of extension.  The kernel draws every variate
through the *same* NumPy C functions the ``Generator`` methods call,
on PCG64 streams it seeds itself in the *same* states
:class:`~repro.simulation.rng.RngStreams` derives (NumPy's
``SeedSequence`` mixing over the replication's seed words and the
stream name's digest, then ``pcg64_set_seed``) — so the bit-stream
consumption, and therefore every simulated metric, is bit-identical to
the pure-Python engine (enforced by ``tests/test_golden_sim_metrics.py``
and ``tests/test_compiled_backend.py``, whose differential seeding test
holds the kernel's streams to ``RngStreams`` as the oracle).

One driver serves every caller.  The kernel exports a single
``run_kernel`` that runs ``n_reps`` replications of one scenario on one
reused arena: :func:`maybe_simulate_compiled` (behind ``simulate()``)
is a batch of one, :func:`simulate_block` passes a block of a
replication round, and :func:`maybe_simulate_fleet_batch` a fleet
chunk.  :func:`_run_kernel` builds one descriptor template for the
call plus the seed words of every replication (for a fleet chunk, one
NumPy block computed from the unit indices), makes the call and
returns the block of tallies the kernel filled
(:class:`~repro.simulation.simulator._Tallies`, the Python engine's
too), with each failed replication's exception.
:func:`~repro.simulation.simulator._finalize` turns the block into
result columns, and a replication's ``SimulationResult`` and a fleet
store row are read off them: the result formulas live in
:mod:`repro.simulation.simulator`, once for both engines.

Backend selection (the ``backend`` argument of every simulation entry
point; ``None`` reads ``REPRO_SIM_BACKEND``):

``python`` (default)
    Pure-Python engine, exactly as before.
``compiled``
    Use the C kernel; if it cannot be built/loaded or the run's
    configuration is unsupported, fall back to pure Python with a
    single visible :class:`~repro.exceptions.CompiledFallbackWarning`
    per process and reason.
``auto``
    Use the C kernel when available and applicable, silently fall
    back otherwise.

A pooled run decides its engine in the parent, so a fallback warns
there once; its tasks are handed ``compiled`` or ``python``.

The support envelope is closed: processor-sharing tiers run natively
(the kernel mirrors :mod:`repro.simulation.ps_station`'s share law),
dynamic speed control yields to the Python controller at every epoch
boundary (queue counts and segmented energy out, clipped speeds back
in, work-preserving rescale applied in C), trace-driven arrivals
replay their timestamp arrays in C, and telemetry queue sampling is
buffered kernel-side and batch-flushed to the sink at epoch/end-of-run
boundaries in the engine's exact event order.  The streams the kernel
cannot draw itself are drawn in Python, by the same
:func:`~repro.simulation.simulator._draw_plan` the Python engine
draws through: families without a native C mapping (e.g. Pareto,
whose ``np.power`` SIMD path is not bit-identical to libm ``pow``),
stateful arrival processes, and every stream of an antithetic seed
(``np.log`` is not bitwise libm ``log``, so the coupled streams cannot
be reproduced natively).  A stream the plan draws in vectorized blocks
reaches the kernel as a refill buffer; one it draws a scalar at a time
is a per-draw Python callback, called exactly as often as the Python
engine calls it.  So *any* accepted configuration produces exact
results, and only tiers with a discipline the kernel does not know
fall back to the interpreter engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from ctypes import (
    CFUNCTYPE,
    POINTER,
    c_double,
    c_int,
    c_longlong,
    c_uint32,
    c_uint64,
    c_void_p,
)
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.distributions.base import ScaledDistribution, ShiftedDistribution
from repro.distributions.deterministic import Deterministic
from repro.distributions.erlang import Erlang
from repro.distributions.exponential import Exponential
from repro.distributions.gamma_dist import Gamma
from repro.distributions.hyperexponential import HyperExponential
from repro.distributions.lognormal import LogNormal
from repro.distributions.uniform_dist import Uniform
from repro.distributions.weibull import Weibull
from repro.exceptions import (
    CompiledFallbackWarning,
    ModelValidationError,
    SimulationError,
)
from repro.simulation.rng import MAX_BLOCK_SIZE, AntitheticSeed, BlockCursor, RngStreams, fnv1a64
from repro.simulation.simulator import (
    _JOB_LOG_DTYPE,
    _ROUTING_UNIFORM,
    SimulationResult,
    _annotate_backend,
    _build_routes,
    _build_routing_tables,
    _draw_plan,
    _emit_queue_sample,
    _finalize,
    _SpeedLedger,
    _Tallies,
    _validate,
)
from repro.workload.arrivals import PoissonProcess
from repro.workload.traces import TraceArrivalProcess

__all__ = [
    "KernelBuildError",
    "kernel_available",
    "kernel_status",
    "load_kernel",
    "maybe_simulate_compiled",
    "maybe_simulate_fleet_batch",
    "simulate_block",
    "warm_kernel",
]

# ---------------------------------------------------------------------------
# build & load
# ---------------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")

# kind tags (must match _kernel.c)
_SK_PYCALL = 0
_SK_DET = 1
_SK_EXPO = 2
_SK_GAMMA = 3
_SK_UNIFORM = 4
_SK_LOGNORMAL = 5
_SK_WEIBULL = 6
_SK_HYPER = 7
_SK_PYBLOCK = 8
_SK_TRACE = 9
_POST_MUL = 0
_POST_ADD = 1

# numpy.random.SeedSequence's default entropy pool size, in uint32 words.
_SEED_POOL_SIZE = 4

_RC_NOMEM = 1
_RC_ABORT = 2
_RC_INVARIANT = 3


class KernelBuildError(RuntimeError):
    """The C simulation kernel could not be compiled or loaded."""


_lib: ctypes.CDLL | None = None
_load_error: str | None = None
_warned: set[str] = set()


def _warn_fallback(reason: str) -> None:
    """One visible warning per process and reason, then silence."""
    if reason in _warned:
        return
    _warned.add(reason)
    warnings.warn(
        CompiledFallbackWarning(
            f"compiled simulation backend requested but falling back to the "
            f"pure-Python engine: {reason} (results are bit-identical)"
        ),
        stacklevel=5,
    )


#: Compiler flags of the kernel build.  ``-ffp-contract=off`` keeps
#: every floating-point expression unfused on every target, so the
#: kernel's arithmetic (e.g. the inline Welford update) stays
#: bit-identical to the Python engine's even where FMA is baseline ISA.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _source_digest() -> str:
    payload = _KERNEL_SOURCE.read_bytes()
    tag = (
        f"|numpy={np.__version__}|py={sys.version_info[:2]}|{platform.machine()}"
        f"|cflags={' '.join(_CFLAGS)}"
    )
    return hashlib.sha256(payload + tag.encode()).hexdigest()[:16]


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> str | None:
    for name in ("gcc", "cc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def build_kernel() -> Path:
    """Compile ``_kernel.c`` into the cache (no-op when already built).

    The shared object is keyed by a digest of the source, the NumPy and
    Python versions, the machine architecture and the compiler flags,
    and installed with an atomic rename so concurrent processes (e.g. a
    fleet's workers) can race the build safely.
    """
    cache = _cache_dir()
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError:
        cache = Path(tempfile.gettempdir()) / "repro-kernels"
        cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"repro_sim_kernel_{_source_digest()}.so"
    if target.exists():
        return target
    compiler = _find_compiler()
    if compiler is None:
        raise KernelBuildError(
            "no C compiler found (tried gcc, cc, clang); install one or use "
            "the python backend"
        )
    np_dir = Path(np.__file__).parent
    lib_dir = Path(np.random.__file__).parent / "lib"
    if not (lib_dir / "libnpyrandom.a").exists():
        raise KernelBuildError(
            f"NumPy's static distribution library libnpyrandom.a not found under "
            f"{lib_dir}; this NumPy build cannot back the compiled kernel"
        )
    tmp = target.with_suffix(f".tmp.{os.getpid()}.so")
    cmd = [
        compiler,
        *_CFLAGS,
        "-o",
        str(tmp),
        str(_KERNEL_SOURCE),
        "-I",
        sysconfig.get_paths()["include"],
        "-I",
        np.get_include(),
        "-L",
        str(lib_dir),
        "-lnpyrandom",
        "-lm",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise KernelBuildError(
            f"kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp, target)  # atomic: racing builders converge on one file
    return target


# Every callback's first argument is the replication index in the call.
# (rep, sampler_id) -> variate
_SERVICE_CB = CFUNCTYPE(c_double, c_int, c_int)
# (rep, class, batch_out) -> gap
_ARRIVAL_CB = CFUNCTYPE(c_double, c_int, c_int, POINTER(c_longlong))
# (rep, block_id, buf, cap) -> number of variates written (0 = error/abort)
_REFILL_CB = CFUNCTYPE(c_longlong, c_int, c_int, POINTER(c_double), c_longlong)
# (rep, t_boundary) -> -1 error, 0 keep speeds, 1 apply the speeds slice
_EPOCH_CB = CFUNCTYPE(c_int, c_int, c_double)
# (rep, ts[n], vals[n*2M], n) -> 0 ok, -1 error
_SAMPLE_CB = CFUNCTYPE(c_int, c_int, POINTER(c_double), POINTER(c_longlong), c_longlong)


class _SamplerDesc(ctypes.Structure):
    _fields_ = [
        ("kind", c_int),
        ("n_branches", c_int),
        ("n_post", c_int),
        ("py_id", c_int),
        ("p1", c_double),
        ("p2", c_double),
        ("bg", c_void_p),  # set by the kernel
        ("cdf", POINTER(c_double)),
        ("scales", POINTER(c_double)),
        ("post_op", POINTER(c_int)),
        ("post_val", POINTER(c_double)),
    ]


class _StationDesc(ctypes.Structure):
    _fields_ = [("servers", c_int), ("discipline", c_int), ("capacity", c_int)]


class _ArrivalDesc(ctypes.Structure):
    _fields_ = [
        ("kind", c_int),
        ("py_id", c_int),
        ("scale", c_double),
        ("bg", c_void_p),  # set by the kernel
        ("ts", POINTER(c_double)),  # SK_TRACE: sorted timestamps
        ("n_ts", c_longlong),
        ("cursor", c_longlong),  # SK_TRACE replay state, kernel-owned
        ("clock", c_double),
    ]


_DISCIPLINES = {"fcfs": 0, "priority_np": 1, "priority_pr": 2, "loss": 3, "ps": 4}


def load_kernel() -> ctypes.CDLL:
    """Build (if needed) and load the kernel; cached per process."""
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise KernelBuildError(_load_error)
    try:
        path = build_kernel()
        lib = ctypes.CDLL(str(path))
        lib.run_kernel.restype = c_int
        lib.run_kernel.argtypes = [
            c_int,  # n_reps
            c_int,  # K
            c_int,  # M
            c_double,  # horizon
            c_double,  # warmup
            POINTER(_StationDesc),
            POINTER(_SamplerDesc),  # M*K template
            POINTER(_ArrivalDesc),  # K template
            POINTER(c_void_p),  # routes
            POINTER(c_int),  # route_len
            POINTER(c_void_p),  # entry_cum (NULL = fixed routes)
            POINTER(c_void_p),  # trans_cum
            POINTER(c_int),  # routing_block (K)
            POINTER(c_uint32),  # seed_words (NULL = no native streams)
            POINTER(c_longlong),  # seed_off (n_reps + 1)
            POINTER(c_uint64),  # stream name digests (2K + M*K slots)
            c_int,  # n_blocks (Python refill buffers per replication)
            c_longlong,  # block_size
            c_longlong,  # n_epochs
            POINTER(c_double),  # epoch_times
            POINTER(c_double),  # speeds (n_reps blocks of M)
            POINTER(c_longlong),  # counts_out (M*K queue counts)
            c_double,  # sample_interval
            _SERVICE_CB,
            _ARRIVAL_CB,
            _REFILL_CB,
            _EPOCH_CB,  # NULL = static speeds
            _SAMPLE_CB,
            POINTER(c_int),  # abort_flag
            POINTER(c_double),  # wait_sum
            POINTER(c_double),  # sojourn_sum
            POINTER(c_longlong),  # visit_count
            POINTER(c_longlong),  # n_blocked
            POINTER(c_longlong),  # offered
            POINTER(c_double),  # busy_total
            POINTER(c_double),  # class_busy
            POINTER(c_longlong),  # out_scalars (n_reps blocks of 5)
            POINTER(c_longlong),  # wf_n
            POINTER(c_double),  # wf_mean
            POINTER(c_double),  # wf_m2
            POINTER(c_void_p),  # delay_ptrs (NULL = no samples)
            POINTER(c_longlong),  # delay_counts
            POINTER(c_void_p),  # log_ptrs (NULL = no job log)
            POINTER(c_longlong),  # log_count
            POINTER(c_int),  # rc_out
        ]
        lib.k_free.restype = None
        lib.k_free.argtypes = [c_void_p]
    except KernelBuildError as exc:
        _load_error = str(exc)
        raise
    except OSError as exc:  # dlopen failure
        _load_error = f"could not load compiled kernel: {exc}"
        raise KernelBuildError(_load_error) from exc
    _lib = lib
    return lib


def kernel_available() -> bool:
    """True when the C kernel is (or can be) built and loaded."""
    try:
        load_kernel()
        return True
    except KernelBuildError:
        return False


def kernel_status() -> dict[str, Any]:
    """Diagnostic snapshot for ``repro bench``/docs: availability,
    cache path and the build error (if any)."""
    available = kernel_available()
    return {
        "available": available,
        "source": str(_KERNEL_SOURCE),
        "cache_dir": str(_cache_dir()),
        "error": _load_error,
    }


def warm_kernel() -> bool:
    """Pre-build/load the kernel (e.g. in a pool task or before timing);
    returns availability without raising."""
    return kernel_available()


# ---------------------------------------------------------------------------
# configuration support envelope
# ---------------------------------------------------------------------------


def _unsupported_reason(cluster) -> str | None:
    """Why this configuration cannot run on the C kernel (``None`` =
    supported).

    Epoch controllers, antithetic seeds, PS tiers, routing, traces and
    telemetry queue sampling are all inside the envelope; the one
    exclusion is a tier discipline the kernel has no state machine for.
    """
    for tier in cluster.tiers:
        if tier.discipline not in _DISCIPLINES:
            return (
                f"tier discipline {tier.discipline!r} is not modeled by the "
                "compiled kernel"
            )
    return None


# ---------------------------------------------------------------------------
# descriptor building
# ---------------------------------------------------------------------------


def _sampler_template(dist, keep: list) -> _SamplerDesc | None:
    """The kernel descriptor of a distribution the kernel draws itself,
    or ``None`` when its family has no native NumPy C counterpart (e.g.
    Pareto, whose ``np.power`` SIMD path is not bit-identical to libm
    ``pow``) and Python draws it.

    ``Scaled``/``Shifted`` wrappers unwrap into a post-op chain
    (outermost first; the kernel applies them innermost first, matching
    the Python nesting).
    """
    post_ops: list[int] = []
    post_vals: list[float] = []
    base = dist
    while isinstance(base, (ScaledDistribution, ShiftedDistribution)):
        if isinstance(base, ScaledDistribution):
            post_ops.append(_POST_MUL)
            post_vals.append(float(base.factor))
        else:
            post_ops.append(_POST_ADD)
            post_vals.append(float(base.offset))
        base = base.base

    desc = _SamplerDesc()
    bt = type(base)
    if bt is Deterministic:
        desc.kind = _SK_DET
        desc.p1 = float(base.value)
    elif bt is Exponential:
        desc.kind = _SK_EXPO
        desc.p1 = 1.0 / base.rate
    elif bt in (Erlang, Gamma):
        desc.kind = _SK_GAMMA
        desc.p1 = float(base.k)
        desc.p2 = 1.0 / base.rate
    elif bt is Uniform:
        desc.kind = _SK_UNIFORM
        desc.p1 = float(base.low)
        # Generator.uniform computes the range once as high - low.
        desc.p2 = float(base.high) - float(base.low)
    elif bt is LogNormal:
        desc.kind = _SK_LOGNORMAL
        desc.p1 = float(base.mu)
        desc.p2 = float(base.sigma)
    elif bt is Weibull:
        desc.kind = _SK_WEIBULL
        desc.p1 = float(base.lam)
        desc.p2 = float(base.k)
    elif bt is HyperExponential:
        desc.kind = _SK_HYPER
        cdf = np.ascontiguousarray(base._cdf, dtype=np.float64)
        scales = np.ascontiguousarray(base._scales, dtype=np.float64)
        keep.extend((cdf, scales))
        desc.n_branches = cdf.size
        desc.cdf = _ptr(cdf, c_double)
        desc.scales = _ptr(scales, c_double)
    else:
        return None
    desc.n_post = len(post_ops)
    if post_ops:
        op_arr = np.asarray(post_ops, dtype=np.int32)
        val_arr = np.asarray(post_vals, dtype=np.float64)
        keep.extend((op_arr, val_arr))
        desc.post_op = _ptr(op_arr, c_int)
        desc.post_val = _ptr(val_arr, c_double)
    return desc


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


class _Rep:
    """The Python side of one replication in a kernel call: the streams
    its callbacks draw from, and the first exception one of them
    raised."""

    __slots__ = ("calls", "fills", "epoch", "error")

    def __init__(self) -> None:
        self.calls: list[Any] = []  # SK_PYCALL samplers and pullers, by py_id
        self.fills: list[Any] = []  # SK_PYBLOCK next_block()s, by block id
        self.epoch: Any = None  # epoch decision (dynamic speed control)
        self.error: BaseException | None = None

    def bind(self, plan) -> tuple[int, int]:
        """Register one stream's :func:`_draw_plan`; returns the kind and
        id of its descriptor: a refill block for a block plan, a
        per-draw callback for a scalar one."""
        if isinstance(plan, BlockCursor):
            self.fills.append(plan.next_block)
            return _SK_PYBLOCK, len(self.fills) - 1
        self.calls.append(plan)
        return _SK_PYCALL, len(self.calls) - 1


def _u32_words(x) -> list[int]:
    """A non-negative int, or a sequence of them, as the little-endian
    uint32 words ``SeedSequence`` hashes."""
    if not isinstance(x, (int, np.integer)):
        return [w for v in x for w in _u32_words(v)]
    n = int(x)
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _seed_words(seed) -> list[int]:
    """The entropy words of RngStreams' per-stream
    ``SeedSequence(entropy, spawn_key + (fnv1a64(name),))`` for a plain
    seed, up to the name digest: the run entropy zero-padded to the
    pool size (SeedSequence pads it whenever a spawn key follows), then
    the spawn key.  The kernel mixes these words once per replication
    and each stream's name digest on top of them."""
    if isinstance(seed, np.random.SeedSequence):
        entropy, spawn_key = seed.entropy, seed.spawn_key
    elif not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ModelValidationError(f"seed must be a non-negative integer, got {seed}")
    else:
        entropy, spawn_key = seed, ()
    run = _u32_words(entropy)
    return run + [0] * (_SEED_POOL_SIZE - len(run)) + _u32_words(spawn_key)


class _IndexSeeds:
    """The seeds ``SeedSequence(master, spawn_key=(scenario, r))`` for
    ``r`` in ``reps`` (a fleet chunk's unit seeds), kept as indices.

    The kernel needs only their seed words, which :meth:`words` builds
    for the whole block at once in NumPy.  Iterating yields the
    ``SeedSequence`` objects, for the replications whose streams Python
    still draws from.
    """

    def __init__(self, master: int, scenario: int, reps: range) -> None:
        if not (isinstance(scenario, (int, np.integer)) and scenario >= 0):
            raise ModelValidationError(f"scenario must be a non-negative integer, got {scenario}")
        if reps and not (0 <= min(reps) and max(reps) < 2**32):
            raise ModelValidationError(f"replication indices must lie in [0, 2**32), got {reps}")
        self.master, self.scenario, self.reps = master, scenario, reps

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self):
        for r in self.reps:
            yield np.random.SeedSequence(self.master, spawn_key=(self.scenario, r))

    def words(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_seed_block` of these seeds: each seed's words are the
        master's padded words, the scenario's words, then the
        replication's one word."""
        head = _seed_words(self.master) + _u32_words(self.scenario)
        block = np.empty((len(self.reps), len(head) + 1), dtype=np.uint32)
        block[:, :-1] = head
        block[:, -1] = self.reps
        return block.ravel(), np.arange(len(self.reps) + 1, dtype=np.int64) * block.shape[1]


def _seed_block(seeds) -> tuple[np.ndarray, np.ndarray] | None:
    """Every plain seed's :func:`_seed_words` as one flat uint32 array,
    plus the ``len(seeds) + 1`` offsets that delimit them; ``None`` for
    antithetic seeds, whose streams Python draws."""
    if isinstance(seeds, _IndexSeeds):
        return seeds.words()
    coupled = [isinstance(seed, AntitheticSeed) for seed in seeds]
    if any(coupled):
        if not all(coupled):
            raise ModelValidationError("one kernel call cannot mix antithetic and plain seeds")
        return None
    words = [_seed_words(seed) for seed in seeds]
    offsets = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum([len(w) for w in words], out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(words), dtype=np.uint32, count=int(offsets[-1]))
    return flat, offsets


@lru_cache(maxsize=None)
def _stream_digests(k_classes: int, m_stations: int) -> np.ndarray:
    """The FNV-1a digest of every kernel stream slot's name, in slot
    order: ``arrivals/k``, then ``service/i/k``, then ``routing/k``."""
    names = [f"arrivals/{k}" for k in range(k_classes)]
    names += [f"service/{i}/{k}" for i in range(m_stations) for k in range(k_classes)]
    names += [f"routing/{k}" for k in range(k_classes)]
    return np.array([fnv1a64(name) for name in names], dtype=np.uint64)


def _describe(cluster, workload, seeds, reps, arrival_processes, routed, dynamic, coupled, keep):
    """The call's sampler, arrival and routing descriptor templates,
    plus the Python side of every replication's streams.

    One template serves every replication of the call.  For int and
    SeedSequence seeds the kernel seeds each native slot's PCG64 stream
    itself (see :func:`_seed_words`), in the state
    ``RngStreams(seed).stream(name)`` starts from, and draws Poisson
    gaps, routing uniforms and every family :func:`_sampler_template`
    maps.  The streams Python draws come from ``RngStreams(seed)``, the
    oracle: the other families and arrival processes, and every stream
    of an antithetic seed, whose coupled generators' mirrored inverse
    transforms (``np.log``, not bitwise libm ``log``) the kernel cannot
    reproduce.  Each is drawn by its
    :func:`~repro.simulation.simulator._draw_plan`, as the Python engine
    draws it: a block plan becomes an ``_SK_PYBLOCK`` refill buffer, a
    scalar one an ``_SK_PYCALL`` per-draw callback, and neither carries
    post-ops (the plan samples the whole wrapped distribution).  Every
    replication registers its plans in the same order, so the
    template's ids fit all of them.
    """
    k_classes, m_stations = workload.num_classes, cluster.num_tiers
    # Under dynamic speed control the sampler yields the *demand* (work
    # at speed 1) and the kernel divides by the current speed at pull
    # time, mirroring simulator._make_dynamic_sampler.
    dists = [
        [tier.demands[k] if dynamic else tier.demands[k].scaled(1.0 / tier.speed)
         for k in range(k_classes)]
        for tier in cluster.tiers
    ]
    keep.append(dists)
    procs = (
        [PoissonProcess(c.arrival_rate) for c in workload.classes]
        if arrival_processes is None
        else list(arrival_processes)
    )

    drawn = []  # (descriptor, stream name, source) of each stream Python draws
    sampler_desc = _array(_SamplerDesc, m_stations * k_classes)()
    for i in range(m_stations):
        for k in range(k_classes):
            slot = i * k_classes + k
            native = None if coupled else _sampler_template(dists[i][k], keep)
            if native is None:
                drawn.append((sampler_desc[slot], f"service/{i}/{k}", dists[i][k]))
            else:
                sampler_desc[slot] = native
    arrival_desc = _array(_ArrivalDesc, k_classes)()
    for k, (desc, proc) in enumerate(zip(arrival_desc, procs)):
        if type(proc) is TraceArrivalProcess:
            # RNG-free timestamp replay runs natively in C.
            ts = np.ascontiguousarray(proc.timestamps, dtype=np.float64)
            keep.append(ts)
            desc.kind = _SK_TRACE
            desc.ts = _ptr(ts, c_double)
            desc.n_ts = ts.size
        elif type(proc) is PoissonProcess and not coupled:
            desc.kind = _SK_EXPO
            desc.scale = 1.0 / proc.rate
        else:
            drawn.append((desc, f"arrivals/{k}", proc))
    routing_block = _array(c_int, k_classes)(*[-1] * k_classes) if routed else None

    if not drawn:
        return sampler_desc, arrival_desc, routing_block  # every stream is kernel-seeded
    for seed, rep in zip(seeds, reps):
        stream = RngStreams(seed).stream
        for desc, name, source in drawn:
            desc.kind, desc.py_id = rep.bind(_draw_plan(source, stream(name)))
        if routed and coupled:
            for k in range(k_classes):
                plan = _draw_plan(_ROUTING_UNIFORM, stream(f"routing/{k}"))
                _, routing_block[k] = rep.bind(plan)
    return sampler_desc, arrival_desc, routing_block


def _epoch_decision(ledger, busy, class_busy, counts, speeds):
    """The Python half of the epoch-yield protocol for one replication:
    bill the busy time the kernel closed at the boundary (it flushed
    the totals into ``busy``/``class_busy``), let the controller decide
    on the published queue ``counts``, and hand the clamped speeds back
    through ``speeds`` (return 1 = apply, 0 = keep)."""

    def decide(t: float) -> int:
        ledger.bill(busy.tolist(), class_busy.tolist())
        if not ledger.decide(t, counts):
            return 0
        speeds[:] = ledger.speeds
        return 1

    return decide


def _kernel_error(rc: int, callback_error: BaseException | None) -> BaseException:
    """The exception a failed replication raises: what its callback
    raised, or the engine's exception for the kernel's error code."""
    if rc == _RC_ABORT:
        return callback_error or SimulationError(
            "compiled kernel aborted without a recorded error"
        )
    if rc == _RC_NOMEM:
        return MemoryError("compiled simulation kernel ran out of memory")
    return SimulationError("completion with no busy server (compiled kernel)")


def _take(lib, ptr, n: int, dtype) -> np.ndarray:
    """Copy a kernel-owned buffer of ``n`` values, then free it."""
    out = np.empty(n if ptr else 0, dtype=dtype)
    if ptr:
        ctypes.memmove(out.ctypes.data, ptr, out.nbytes)
        lib.k_free(ptr)
    return out


def _ptr(arr: np.ndarray | None, ctype):
    # A cast of the address, not ``arr.ctypes.data_as``, whose pointer
    # object leaves cyclic garbage behind on every call.
    return None if arr is None else ctypes.cast(arr.ctypes.data, POINTER(ctype))


@lru_cache(maxsize=64)
def _array(ctype, n: int):
    """The ctypes array type ``ctype * n``, built once: ctypes keeps only
    a weak cache of array types, so a type built per call is cyclic
    garbage once the call returns."""
    return ctype * n


def _run_kernel(
    lib,
    cluster,
    workload,
    horizon: float,
    warmup: float,
    seeds,
    arrival_processes=None,
    collect_delay_samples: bool = False,
    collect_job_log: bool = False,
    routing=None,
    epoch_times=None,
    epoch_controller=None,
) -> _Tallies:
    """Run one replication per seed of a validated scenario in a single
    kernel call (a failure costs only that replication), and return the
    block the kernel filled.  ``seeds`` is a list of seeds or an
    :class:`_IndexSeeds` block."""
    k_classes, m_stations = workload.num_classes, cluster.num_tiers
    n = len(seeds)
    dynamic = epoch_controller is not None
    keep: list[Any] = []  # keep-alive for every object the kernel reads
    reps = [_Rep() for _ in range(n)]
    abort = _array(c_int, 1)(0)

    with obs.span("sim.setup", classes=k_classes, stations=m_stations, horizon=horizon, reps=n):
        station_desc = _array(_StationDesc, m_stations)()
        for i, tier in enumerate(cluster.tiers):
            station_desc[i].servers = tier.servers
            station_desc[i].discipline = _DISCIPLINES[tier.discipline]
            station_desc[i].capacity = -1 if tier.capacity is None else tier.capacity
        routes_v = route_len = entry_v = trans_v = None
        if routing is None:
            route_arrays = [np.asarray(r, dtype=np.int32) for r in _build_routes(cluster)]
            keep.append(route_arrays)
            routes_v = _array(c_void_p, k_classes)(*[r.ctypes.data for r in route_arrays])
            route_len = _array(c_int, k_classes)(*[r.size for r in route_arrays])
        else:
            tables = _build_routing_tables(cluster, routing)
            entry = [np.ascontiguousarray(t[0], dtype=np.float64) for t in tables]
            trans = [np.ascontiguousarray(np.stack(t[1]), dtype=np.float64) for t in tables]
            keep.append((entry, trans))
            entry_v = _array(c_void_p, k_classes)(*[a.ctypes.data for a in entry])
            trans_v = _array(c_void_p, k_classes)(*[a.ctypes.data for a in trans])
        seed_block = _seed_block(seeds)
        seed_words, seed_off = (None, None) if seed_block is None else seed_block
        sampler_desc, arrival_desc, routing_block = _describe(
            cluster, workload, seeds, reps, arrival_processes, routing is not None, dynamic,
            seed_block is None, keep,
        )

        run = _Tallies(n, k_classes, m_stations, collect_delay_samples, collect_job_log)
        delay_ptrs = delay_counts = log_ptrs = log_count = None
        if collect_delay_samples:
            delay_ptrs = _array(c_void_p, n * k_classes)()
            delay_counts = np.zeros((n, k_classes), dtype=np.int64)
        if collect_job_log:
            log_ptrs = _array(c_void_p, n * 4)()
            log_count = np.zeros(n, dtype=np.int64)

        # Epoch-boundary yield protocol: the kernel pauses at each
        # boundary, publishes the queue counts and closed busy totals,
        # and calls the replication's decision; a positive return
        # applies its speeds slice with the work-preserving rescale.
        epoch_sched = speeds = counts = None
        if dynamic:
            epoch_sched = np.ascontiguousarray(epoch_times, dtype=np.float64)
            speeds = np.tile([float(t.speed) for t in cluster.tiers], (n, 1))
            counts = np.zeros((m_stations, k_classes), dtype=np.int64)
            for b, rep in enumerate(reps):
                run.ledgers[b] = _SpeedLedger(cluster, epoch_controller, epoch_sched)
                rep.epoch = _epoch_decision(
                    run.ledgers[b], run.busy[b], run.class_busy[b], counts, speeds[b]
                )

        # Buffered queue-length sampling: the kernel records (t,
        # populations, busy) rows and batch-flushes them at epoch
        # boundaries and at the end of each replication, in the
        # engine's exact emission order.
        tel = obs.TELEMETRY
        sample_interval = (
            tel.queue_sample_interval if (tel.enabled and tel.sample_queues) else 0.0
        )

        def _guard(callback, failed_value):
            """A kernel callback run for one replication: an exception is
            recorded on the replication and aborts it through the flag."""

            def guarded(rep: int, *args):
                try:
                    return callback(reps[rep], *args)
                except BaseException as exc:
                    if reps[rep].error is None:
                        reps[rep].error = exc
                    abort[0] = 1
                    return failed_value

            return guarded

        arrival_ids = [desc.py_id for desc in arrival_desc]

        def _arrival(rep: _Rep, cls: int, batch_out) -> float:
            gap, batch = rep.calls[arrival_ids[cls]]()
            batch_out[0] = int(batch)
            return float(gap)

        def _refill(rep: _Rep, block_id: int, buf, cap: int) -> int:
            # The block the Python engine's cursor would draw next; each
            # holds at most MAX_BLOCK_SIZE values, the buffer's size.
            arr = np.ascontiguousarray(rep.fills[block_id](), dtype=np.float64)
            if arr.size <= cap:  # a larger one aborts the run unwritten
                ctypes.memmove(buf, arr.ctypes.data, arr.size * 8)
            return arr.size

        def _samples(_rep: _Rep, ts, vals, n_rows: int) -> int:
            rows = np.empty((n_rows, 2, m_stations), dtype=np.int64)
            ctypes.memmove(rows.ctypes.data, vals, rows.nbytes)
            rows = rows.tolist()
            for r, (pops, busy_now) in enumerate(rows):
                _emit_queue_sample(tel, float(ts[r]), pops, busy_now)
            return 0

        n_blocks = max(len(rep.fills) for rep in reps)
        calls = any(rep.calls for rep in reps)
        callbacks = (
            _SERVICE_CB(_guard(lambda rep, i: rep.calls[i](), 0.0)) if calls else _SERVICE_CB(),
            _ARRIVAL_CB(_guard(_arrival, 0.0)) if calls else _ARRIVAL_CB(),
            _REFILL_CB(_guard(_refill, 0)) if n_blocks else _REFILL_CB(),
            _EPOCH_CB(_guard(lambda rep, t: rep.epoch(t), -1)) if dynamic else _EPOCH_CB(),
            _SAMPLE_CB(_guard(_samples, -1)) if sample_interval > 0.0 else _SAMPLE_CB(),
        )

    with obs.span("sim.event_loop", horizon=horizon, backend="compiled", reps=n):
        lib.run_kernel(
            n,
            k_classes,
            m_stations,
            float(horizon),
            float(warmup),
            station_desc,
            sampler_desc,
            arrival_desc,
            routes_v,
            route_len,
            entry_v,
            trans_v,
            routing_block,
            _ptr(seed_words, c_uint32),
            _ptr(seed_off, c_longlong),
            _ptr(_stream_digests(k_classes, m_stations), c_uint64),
            n_blocks,
            MAX_BLOCK_SIZE,
            0 if epoch_sched is None else epoch_sched.size,
            _ptr(epoch_sched, c_double),
            _ptr(speeds, c_double),
            _ptr(counts, c_longlong),
            float(sample_interval),
            *callbacks,
            abort,
            _ptr(run.wait, c_double),
            _ptr(run.sojourn, c_double),
            _ptr(run.visit, c_longlong),
            _ptr(run.blocked, c_longlong),
            _ptr(run.offered, c_longlong),
            _ptr(run.busy, c_double),
            _ptr(run.class_busy, c_double),
            _ptr(run.scalars, c_longlong),
            _ptr(run.wf_n, c_longlong),
            _ptr(run.wf_mean, c_double),
            _ptr(run.wf_m2, c_double),
            delay_ptrs,
            _ptr(delay_counts, c_longlong),
            log_ptrs,
            _ptr(log_count, c_longlong),
            _ptr(run.rc, c_int),
        )
    del keep  # the kernel has returned; arrays may be collected now

    for b in np.flatnonzero(run.rc).tolist():
        run.errors[b] = _kernel_error(int(run.rc[b]), reps[b].error)
    ok = [b for b in range(n) if b not in run.errors]
    for b in ok:
        if run.ledgers[b] is not None:
            # The kernel closed the busy intervals at the horizon; billing
            # them closes the last constant-speed segment.
            run.ledgers[b].bill(run.busy[b].tolist(), run.class_busy[b].tolist())
    if collect_delay_samples:
        for b in ok:
            run.delay_samples[b] = [
                _take(lib, delay_ptrs[b * k_classes + k], int(delay_counts[b, k]), np.float64)
                for k in range(k_classes)
            ]
    if collect_job_log:
        for b in ok:
            n_log = int(log_count[b])
            run.job_logs[b] = job_log = np.empty(n_log, dtype=_JOB_LOG_DTYPE)
            for j, name in enumerate(_JOB_LOG_DTYPE.names):
                job_log[name] = _take(lib, log_ptrs[b * 4 + j], n_log, _JOB_LOG_DTYPE[name])
    return run


def _kernel_for(backend: str, cluster) -> ctypes.CDLL | None:
    """The loaded kernel, or ``None`` when this configuration must fall
    back to the Python engine (warning once per reason under
    ``compiled``; silent under ``auto``)."""
    reason = _unsupported_reason(cluster)
    if reason is None:
        try:
            lib = load_kernel()
        except KernelBuildError as exc:
            reason = str(exc)
        else:
            _annotate_backend("compiled", backend)
            return lib
    if backend == "compiled":
        _warn_fallback(reason)
    _annotate_backend("python", backend, fallback=reason)
    return None


def maybe_simulate_compiled(
    backend: str,
    cluster,
    workload,
    horizon: float,
    warmup_fraction: float,
    seed,
    arrival_processes,
    collect_delay_samples: bool,
    collect_job_log: bool,
    routing,
    epoch_times,
    epoch_controller,
) -> SimulationResult | None:
    """Run the (validated) replication on the C kernel as a batch of
    one, or return ``None`` to make
    :func:`~repro.simulation.simulator.simulate` fall back to the
    Python engine.  ``backend`` is ``"compiled"`` or ``"auto"``; only
    ``"compiled"`` warns on fallback.
    """
    lib = _kernel_for(backend, cluster)
    if lib is None:
        return None
    warmup = warmup_fraction * horizon
    run = _run_kernel(
        lib,
        cluster,
        workload,
        horizon,
        warmup,
        [seed],
        arrival_processes,
        collect_delay_samples,
        collect_job_log,
        routing,
        epoch_times,
        epoch_controller,
    )
    if run.errors:
        raise run.errors[0]
    return _finalize(cluster, workload, horizon, warmup, run).result(0)


def maybe_simulate_fleet_batch(
    backend: str,
    cluster,
    workload,
    horizon: float,
    warmup_fraction: float,
    reps: range,
    seed: int,
    scenario: int,
):
    """Run replications ``reps`` of fleet scenario ``scenario`` in one
    kernel call, or return ``None`` when the kernel is unavailable or a
    tier discipline is not modeled, so the fleet runner falls back to
    the Python engine.

    Replication ``r`` runs under ``SeedSequence(seed,
    spawn_key=(scenario, r))``, whose seed words are built from the
    indices for the whole chunk.  The scenario is validated once for the
    chunk (it is deterministic in the scenario, so raising once is
    observably the same as raising per unit).  Returns the
    ``(rows, failures)`` of the finalized block
    (:meth:`~repro.simulation.simulator._Tallies.fleet_rows`): one
    store row per replication that succeeded (``wall_s`` is its own
    time in the kernel), and ``(index into reps, "ExcType: message")``
    pairs formatted exactly like the fleet's per-unit failure records.
    """
    lib = _kernel_for(backend, cluster)
    if lib is None:
        return None
    _validate(cluster, workload, horizon, warmup_fraction)
    warmup = warmup_fraction * horizon
    run = _run_kernel(lib, cluster, workload, horizon, warmup, _IndexSeeds(seed, scenario, reps))
    return _finalize(cluster, workload, horizon, warmup, run).fleet_rows(scenario, reps)


def simulate_block(
    seeds,
    cluster,
    workload,
    horizon: float,
    warmup_fraction: float = 0.1,
    arrival_processes=None,
    allow_unstable: bool = False,
    collect_delay_samples: bool = False,
    collect_job_log: bool = False,
    routing=None,
    epoch_times=None,
    epoch_controller=None,
    backend: str = "compiled",
) -> _Tallies | None:
    """:func:`~repro.simulation.simulator.simulate` under each of
    ``seeds`` in one kernel call, as the finalized block (replication
    ``b`` is ``seeds[b]``; a failed one is in ``errors``), or ``None``
    when the kernel is unavailable.
    Takes :func:`simulate`'s keyword arguments but ``seed``."""
    _validate(
        cluster, workload, horizon, warmup_fraction, arrival_processes, allow_unstable,
        epoch_times, epoch_controller,
    )
    lib = _kernel_for(backend, cluster)
    if lib is None:
        return None
    warmup = warmup_fraction * horizon
    run = _run_kernel(
        lib, cluster, workload, horizon, warmup, seeds, arrival_processes,
        collect_delay_samples, collect_job_log, routing, epoch_times, epoch_controller,
    )
    return _finalize(cluster, workload, horizon, warmup, run)
