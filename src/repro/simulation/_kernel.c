/* Compiled event-loop kernel for the discrete-event simulator.
 *
 * This file is compiled on demand by repro/simulation/compiled.py (gcc
 * or cc, linked against NumPy's libnpyrandom) and driven through
 * ctypes.  It reimplements the hot loop of
 * repro/simulation/simulator.py -- the (time, seq) event queue, the
 * array-backed SimStation state machine, the processor-sharing station
 * and the per-event statistics tallies -- in C, while drawing every
 * random variate through NumPy's own C distribution functions on
 * per-stream bit generators in the *same* states the pure-Python
 * engine's streams start from.
 *
 * Bit-identity contract: for any configuration this kernel accepts,
 * the produced metrics are bit-identical to the pure-Python engine
 * (enforced by tests/test_golden_sim_metrics.py and
 * tests/test_compiled_backend.py).  That is possible because
 *
 *  - every natively drawn stream is seeded here, per replication, from
 *    the same SeedSequence words RngStreams hashes (the replication's
 *    run entropy padded to the pool size, its spawn key, then the
 *    stream name's FNV-1a digest): NumPy's published SeedSequence
 *    mixing and generate_state feed pcg64_set_seed, and the stream's
 *    bitgen_t is this file's own PCG64 XSL-RR with NumPy's 32-bit
 *    buffering, so every draw consumes the bits RngStreams' PCG64
 *    would (RngStreams is the oracle: the differential seeding test
 *    compares states and interleaved outputs through k_stream_probe);
 *  - pending events are ordered by the same unique (time, push-sequence)
 *    key, so any correct queue (Python's heap, this file's sorted array)
 *    pops the same total order;
 *  - every floating-point update (busy-time clipping, wait/sojourn
 *    sums, completion times, PS share decrements, DVFS remaining-work
 *    rescales) mirrors the Python expression shape and evaluation
 *    order exactly (IEEE doubles are deterministic);
 *  - service and arrival variates are drawn by the exact NumPy C
 *    functions (random_exponential, random_gamma, ziggurat
 *    standard-exponential, ...) on the stream's bitgen_t, which
 *    consume the bit stream exactly as the Generator methods do; the
 *    block-sampling contract (tests/test_block_rng.py) makes one
 *    scalar draw per event equal to the Python engine's
 *    block-pregenerated draws;
 *  - every stream the kernel cannot draw natively (families without a
 *    native mapping, stateful arrival processes, and every stream of
 *    an antithetic seed, whose coupled inverse transforms go through
 *    np.log, not bitwise libm log) is drawn in Python by the stream's
 *    simulator._draw_plan, the same plan the Python engine draws
 *    through.  A block plan reaches the kernel as an SK_PYBLOCK
 *    buffer, refilled with each block its BlockCursor draws (a few
 *    dozen values first, doubling up to the buffer's size); a scalar
 *    plan is an SK_PYCALL per-draw callback.  Either way the value
 *    sequence is identical by construction.
 *
 * Beyond the plain event loop the kernel models:
 *
 *  - DISC_PS processor-sharing stations (lazy remaining-time elapse,
 *    first-minimal completion pick, epoch-cancelled re-arm) mirroring
 *    repro/simulation/ps_station.py;
 *  - an epoch-boundary yield protocol for online speed control: at
 *    each scheduled boundary the kernel closes busy intervals,
 *    publishes per-tier queue counts and busy totals, flushes queue
 *    samples, and calls epoch_cb; when the callback reports new
 *    speeds (written into the shared speeds array) the kernel applies
 *    them with the engine's work-preserving remaining-time rescale
 *    and re-arms affected stations;
 *  - SK_TRACE arrivals replaying a recorded timestamp array without
 *    any RNG or callback round trip;
 *  - buffered per-tier queue-length sampling, batch-flushed through
 *    sample_cb at epoch boundaries and at the end of the run instead
 *    of hooking every sample into Python.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#include "numpy/random/bitgen.h"
#include "numpy/random/distributions.h"

#define EV_ARRIVAL 0
#define EV_COMPLETION 1

#define DISC_FCFS 0
#define DISC_PRIORITY_NP 1
#define DISC_PRIORITY_PR 2
#define DISC_LOSS 3
#define DISC_PS 4

#define SK_PYCALL 0
#define SK_DET 1
#define SK_EXPO 2
#define SK_GAMMA 3
#define SK_UNIFORM 4
#define SK_LOGNORMAL 5
#define SK_WEIBULL 6
#define SK_HYPER 7
#define SK_PYBLOCK 8
#define SK_TRACE 9

#define POST_MUL 0
#define POST_ADD 1

#define RC_OK 0
#define RC_NOMEM 1
#define RC_ABORT 2
#define RC_INVARIANT 3

/* Every callback receives the index of the replication it serves, so
 * one set of Python closures drives a whole batch. */
typedef double (*service_cb_t)(int rep, int sampler_id);
typedef double (*arrival_cb_t)(int rep, int cls, long long *batch_out);
typedef long long (*refill_cb_t)(int rep, int block_id, double *buf, long long cap);
typedef int (*epoch_cb_t)(int rep, double t);
typedef int (*sample_cb_t)(int rep, const double *ts, const long long *vals, long long n_rows);

/* ---- descriptors passed from Python (layout mirrored in ctypes) ---- */

typedef struct {
    int kind;
    int n_branches;
    int n_post;
    int py_id;         /* callback id (PYCALL) or block id (PYBLOCK) */
    double p1;
    double p2;
    void *bg;          /* the slot's bitgen_t, set by the kernel */
    double *cdf;      /* hyperexponential branch CDF */
    double *scales;    /* hyperexponential branch scales */
    int *post_op;      /* POST_MUL / POST_ADD, innermost last */
    double *post_val;
} SamplerDesc;

typedef struct {
    int servers;
    int discipline;
    int capacity;      /* -1 = unbounded */
} StationDesc;

typedef struct {
    int kind;          /* SK_PYCALL, SK_EXPO, SK_PYBLOCK or SK_TRACE */
    int py_id;         /* callback slot (PYCALL) or block id (PYBLOCK) */
    double scale;
    void *bg;          /* the slot's bitgen_t, set by the kernel */
    const double *ts;  /* SK_TRACE: sorted arrival timestamps */
    long long n_ts;
    long long cursor;  /* SK_TRACE replay state (ctx_reset rewinds it) */
    double clock;
} ArrivalDesc;

/* ------------------------- stream seeding --------------------------- */

/* numpy.random.SeedSequence (pool of 4 uint32 words), transcribed from
 * NumPy's bit_generator.pyx: mix_entropy and generate_state. */
#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u

typedef struct {
    uint32_t pool[SS_POOL];
    uint32_t hash_const;
} seedseq_t;

static uint32_t ss_hashmix(seedseq_t *s, uint32_t v) {
    v ^= s->hash_const;
    s->hash_const *= SS_MULT_A;
    v *= s->hash_const;
    v ^= v >> 16;
    return v;
}

static uint32_t ss_mix(uint32_t x, uint32_t y) {
    uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    r ^= r >> 16;
    return r;
}

/* Mix one entropy word beyond the pool size into every pool word. */
static void ss_absorb(seedseq_t *s, uint32_t w) {
    for (int dst = 0; dst < SS_POOL; dst++) s->pool[dst] = ss_mix(s->pool[dst], ss_hashmix(s, w));
}

/* mix_entropy over words[0..n): fill the pool, cross-mix it, then
 * absorb the remaining words.  A stream's entropy is its replication's
 * words followed by the name digest, and the replication's words
 * already fill the pool (the run entropy is padded to SS_POOL), so one
 * ss_init per replication is shared by all its streams and each stream
 * only absorbs its digest words on a copy. */
static void ss_init(seedseq_t *s, const uint32_t *words, long long n) {
    s->hash_const = SS_INIT_A;
    for (int i = 0; i < SS_POOL; i++) s->pool[i] = ss_hashmix(s, i < n ? words[i] : 0);
    for (int src = 0; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (src != dst) s->pool[dst] = ss_mix(s->pool[dst], ss_hashmix(s, s->pool[src]));
    for (long long i = SS_POOL; i < n; i++) ss_absorb(s, words[i]);
}

/* The digest as SeedSequence coerces an int: little-endian uint32
 * words, the high one only when non-zero. */
static void ss_absorb_digest(seedseq_t *s, uint64_t digest) {
    ss_absorb(s, (uint32_t)digest);
    if (digest >> 32) ss_absorb(s, (uint32_t)(digest >> 32));
}

/* generate_state(4, np.uint64): 8 uint32 words viewed little-endian. */
static void ss_generate_u64x4(const seedseq_t *s, uint64_t out[4]) {
    uint32_t hash_const = SS_INIT_B;
    uint32_t w[8];
    for (int i = 0; i < 8; i++) {
        uint32_t v = s->pool[i % SS_POOL];
        v ^= hash_const;
        hash_const *= SS_MULT_B;
        v *= hash_const;
        v ^= v >> 16;
        w[i] = v;
    }
    for (int i = 0; i < 4; i++) out[i] = (uint64_t)w[2 * i] | ((uint64_t)w[2 * i + 1] << 32);
}

/* PCG64 (XSL-RR 128/64) with NumPy's pcg64_state 32-bit buffering. */
typedef __uint128_t u128;
#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

typedef struct {
    u128 state;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64_t;

static uint64_t pcg64_next64(void *st) {
    pcg64_t *p = (pcg64_t *)st;
    p->state = p->state * PCG_MULT + p->inc;
    uint64_t x = (uint64_t)(p->state >> 64) ^ (uint64_t)p->state;
    unsigned rot = (unsigned)(p->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63u));
}

static uint32_t pcg64_next32(void *st) {
    pcg64_t *p = (pcg64_t *)st;
    if (p->has_uint32) {
        p->has_uint32 = 0;
        return p->uinteger;
    }
    uint64_t next = pcg64_next64(st);
    p->has_uint32 = 1;
    p->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)(next & 0xffffffffu);
}

static double pcg64_next_double(void *st) {
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* pcg64_set_seed(seed = v[0..1], inc = v[2..3]), high word first. */
static void pcg64_seed(pcg64_t *p, const uint64_t v[4]) {
    u128 initstate = ((u128)v[0] << 64) | v[1];
    u128 initseq = ((u128)v[2] << 64) | v[3];
    p->inc = (initseq << 1) | 1u;
    p->state = p->inc; /* 0 * PCG_MULT + inc */
    p->state += initstate;
    p->state = p->state * PCG_MULT + p->inc;
    p->has_uint32 = 0;
    p->uinteger = 0;
}

static void bind_stream(bitgen_t *bg, pcg64_t *p) {
    bg->state = p;
    bg->next_uint64 = pcg64_next64;
    bg->next_uint32 = pcg64_next32;
    bg->next_double = pcg64_next_double;
    bg->next_raw = pcg64_next64;
}

/* One stream: the replication's mixed pool plus the name digest. */
static void seed_stream(pcg64_t *p, const seedseq_t *rep_pool, uint64_t digest) {
    seedseq_t s = *rep_pool;
    uint64_t v[4];
    ss_absorb_digest(&s, digest);
    ss_generate_u64x4(&s, v);
    pcg64_seed(p, v);
}

/* ------------------------------- deque ------------------------------ */

typedef struct {
    int *buf;
    int cap;
    int head;
    int len;
} dq_t;

static int dq_init(dq_t *q) {
    q->cap = 16;
    q->head = 0;
    q->len = 0;
    q->buf = (int *)malloc(sizeof(int) * q->cap);
    return q->buf == NULL;
}

static int dq_grow(dq_t *q) {
    int ncap = q->cap * 2;
    int *nbuf = (int *)malloc(sizeof(int) * ncap);
    if (nbuf == NULL) return 1;
    for (int i = 0; i < q->len; i++) nbuf[i] = q->buf[(q->head + i) % q->cap];
    free(q->buf);
    q->buf = nbuf;
    q->cap = ncap;
    q->head = 0;
    return 0;
}

static int dq_push_back(dq_t *q, int v) {
    if (q->len == q->cap && dq_grow(q)) return 1;
    q->buf[(q->head + q->len) % q->cap] = v;
    q->len++;
    return 0;
}

static int dq_push_front(dq_t *q, int v) {
    if (q->len == q->cap && dq_grow(q)) return 1;
    q->head = (q->head + q->cap - 1) % q->cap;
    q->buf[q->head] = v;
    q->len++;
    return 0;
}

static int dq_pop_front(dq_t *q) {
    int v = q->buf[q->head];
    q->head = (q->head + 1) % q->cap;
    q->len--;
    return v;
}

/* --------------------------- event queue --------------------------- */

typedef struct {
    double t;
    long long seq;
    int kind;
    int a;
    long long b;
} ev_t;

/* Pending events sorted by descending (t, seq): the next event is the
 * last entry, so a pop is O(1).  The set stays small (one arrival per
 * class, one live completion per station, a few superseded ones), so a
 * push shifts only the handful of entries that pop before it. */
typedef struct {
    ev_t *buf;
    long long cap;
    long long len;
} evq_t;

static int ev_less(const ev_t *x, const ev_t *y) {
    if (x->t != y->t) return x->t < y->t;
    return x->seq < y->seq;
}

static int evq_push(evq_t *q, double t, long long seq, int kind, int a, long long b) {
    if (q->len == q->cap) {
        long long ncap = q->cap * 2;
        ev_t *nbuf = (ev_t *)realloc(q->buf, sizeof(ev_t) * ncap);
        if (nbuf == NULL) return 1;
        q->buf = nbuf;
        q->cap = ncap;
    }
    ev_t ev = {t, seq, kind, a, b};
    long long i = q->len++;
    for (; i > 0 && ev_less(&q->buf[i - 1], &ev); i--) q->buf[i] = q->buf[i - 1];
    q->buf[i] = ev;
    return 0;
}

/* ----------------------------- job pool ----------------------------- */

typedef struct {
    long long jid;
    int cls;
    int hop;           /* itinerary index (fixed-route mode) */
    int cur;           /* current station */
    double arrival;
    double station_arrival;
    double remaining;  /* NaN = not yet sampled */
    double service_total;
} job_t;

typedef struct {
    job_t *pool;
    int cap;
    int used;          /* high-water mark */
    int *free_list;
    int free_cap;
    int free_len;
} jobpool_t;

static int jp_init(jobpool_t *jp) {
    jp->cap = 1024;
    jp->used = 0;
    jp->pool = (job_t *)malloc(sizeof(job_t) * jp->cap);
    jp->free_cap = 1024;
    jp->free_len = 0;
    jp->free_list = (int *)malloc(sizeof(int) * jp->free_cap);
    return jp->pool == NULL || jp->free_list == NULL;
}

static int jp_alloc(jobpool_t *jp) {
    if (jp->free_len > 0) return jp->free_list[--jp->free_len];
    if (jp->used == jp->cap) {
        int ncap = jp->cap * 2;
        job_t *np = (job_t *)realloc(jp->pool, sizeof(job_t) * ncap);
        if (np == NULL) return -1;
        jp->pool = np;
        jp->cap = ncap;
    }
    return jp->used++;
}

static int jp_release(jobpool_t *jp, int idx) {
    if (jp->free_len == jp->free_cap) {
        int ncap = jp->free_cap * 2;
        int *nf = (int *)realloc(jp->free_list, sizeof(int) * ncap);
        if (nf == NULL) return 1;
        jp->free_list = nf;
        jp->free_cap = ncap;
    }
    jp->free_list[jp->free_len++] = idx;
    return 0;
}

/* ------------------------- growable buffers ------------------------- */

typedef struct {
    double *buf;
    long long cap;
    long long len;
} dbuf_t;

static int dbuf_push(dbuf_t *b, double v) {
    if (b->len == b->cap) {
        long long ncap = b->cap ? b->cap * 2 : 256;
        double *nb = (double *)realloc(b->buf, sizeof(double) * ncap);
        if (nb == NULL) return 1;
        b->buf = nb;
        b->cap = ncap;
    }
    b->buf[b->len++] = v;
    return 0;
}

typedef struct {
    long long *buf;
    long long cap;
    long long len;
} llbuf_t;

static int llbuf_push(llbuf_t *b, long long v) {
    if (b->len == b->cap) {
        long long ncap = b->cap ? b->cap * 2 : 256;
        long long *nb = (long long *)realloc(b->buf, sizeof(long long) * ncap);
        if (nb == NULL) return 1;
        b->buf = nb;
        b->cap = ncap;
    }
    b->buf[b->len++] = v;
    return 0;
}

typedef struct {
    long long *jid;
    int *cls;
    double *arrival;
    double *exit_t;
    long long cap;
    long long len;
} logbuf_t;

static int logbuf_push(logbuf_t *b, long long jid, int cls, double arrival, double exit_t) {
    if (b->len == b->cap) {
        long long ncap = b->cap ? b->cap * 2 : 256;
        long long *nj = (long long *)realloc(b->jid, sizeof(long long) * ncap);
        int *nc = (int *)realloc(b->cls, sizeof(int) * ncap);
        double *na = (double *)realloc(b->arrival, sizeof(double) * ncap);
        double *ne = (double *)realloc(b->exit_t, sizeof(double) * ncap);
        if (nj) b->jid = nj;
        if (nc) b->cls = nc;
        if (na) b->arrival = na;
        if (ne) b->exit_t = ne;
        if (nj == NULL || nc == NULL || na == NULL || ne == NULL) return 1;
        b->cap = ncap;
    }
    b->jid[b->len] = jid;
    b->cls[b->len] = cls;
    b->arrival[b->len] = arrival;
    b->exit_t[b->len] = exit_t;
    b->len++;
    return 0;
}

/* ------------------------ python block buffers ----------------------- */

typedef struct {
    double *buf;
    long long cap;
    long long len;
    long long pos;
} blockbuf_t;

/* ------------------------------ station ----------------------------- */

typedef struct {
    int index;
    int n_servers;
    int discipline;
    int capacity;      /* -1 = none */
    int *srv_job;      /* job pool index or -1 */
    double *srv_busy_since;
    double *srv_completion;
    long long *srv_seq;
    int n_busy;
    long long start_counter;
    long long sched_epoch;
    double sched_time;
    dq_t fifo;
    dq_t *queues;      /* K queues for priority disciplines */
    double t0;
    double t1;
    double busy_total;
    double *class_busy; /* K, points into the caller's output array */
    /* processor-sharing pool (DISC_PS only) */
    int *ps_jobs;      /* job pool indices in arrival order */
    int ps_len;
    int ps_cap;
    double ps_last_t;
} station_t;

/* ------------------------------ context ----------------------------- */

typedef struct {
    int K;
    int M;
    double horizon;
    double warmup;
    int rep;                 /* index of the running replication */
    SamplerDesc *samplers;   /* M*K arena copy of the template, by station */
    ArrivalDesc *arrivals;   /* K arena copy of the template */
    int has_routing;
    int **routes;            /* K itineraries (fixed-route mode) */
    int *route_len;
    double **entry_cum;      /* K x M (routing mode) */
    double **trans_cum;      /* K x (M*M) row-major cumulative rows */
    int *routing_block;      /* K block ids, -1 = draw from the routing slot */

    /* Kernel-seeded streams, one slot per stream name: arrivals/k at
     * k, service/i/k at K + i*K + k, routing/k at K + M*K + k. */
    pcg64_t *streams;
    bitgen_t *bitgens;
    const uint64_t *digests; /* FNV-1a digest of each slot's name */
    int *seeded;             /* slots drawn natively, reseeded per replication */
    int n_seeded;
    service_cb_t service_cb;
    arrival_cb_t arrival_cb;
    refill_cb_t refill_cb;
    volatile int *abort_flag;

    blockbuf_t *blocks;      /* n_blocks pre-drawn variate buffers */
    int n_blocks;

    /* dynamic speed control (epoch yield protocol) */
    int dynamic;
    double *cur_speed;       /* M, current per-tier speeds */
    double *speeds;          /* M, shared channel written by epoch_cb */
    long long *counts_out;   /* M*K queue counts published per epoch */
    double *busy_out;        /* M busy totals (the caller's output) */
    epoch_cb_t epoch_cb;

    /* buffered queue sampling */
    double sample_interval;
    double next_sample_t;
    sample_cb_t sample_cb;
    dbuf_t sample_ts;
    llbuf_t sample_vals;     /* per row: M populations then M busy */

    int *scratch_counts;     /* K ints for PS per-class busy accrual */

    station_t *stations;
    evq_t events;
    jobpool_t jobs;
    long long next_seq;      /* next push sequence number (starts at 1) */

    /* epoch schedule (dynamic mode) */
    long long n_epochs;
    const double *epoch_times;

    /* outputs (all row-major [class][station] like the Python lists) */
    double *wait_sum;
    double *sojourn_sum;
    long long *visit_count;
    long long *n_blocked;
    long long *offered;
    long long *out_scalars;  /* jid, n_events, n_warmup_discarded, hit_horizon, wall ns */
    /* inline per-class delay accumulation: the scalar Welford
     * recurrence on doubles, bitwise identical to stats.Welford.add_batch
     * replaying the same values. */
    long long *wf_n;         /* K */
    double *wf_mean;         /* K */
    double *wf_m2;           /* K */
    int collect_delays;
    dbuf_t *delay_buf;       /* K growable buffers (collect_delays) */
    int collect_log;
    logbuf_t log;
} ctx_t;

/* Next value from a Python-refilled variate buffer.  The refill
 * callback writes the stream's next BlockCursor block (at most cap
 * values) with the engine's own sampling code (block-sampling
 * contract: one size-n block draw consumes the stream exactly like n
 * scalar draws), so handing the values out one at a time is
 * bit-identical to the Python engine's draw sequence. */
static double block_next(ctx_t *c, int id) {
    blockbuf_t *b = &c->blocks[id];
    if (b->pos >= b->len) {
        long long n = c->refill_cb(c->rep, id, b->buf, b->cap);
        if (n <= 0 || n > b->cap) {
            *c->abort_flag = 1; /* refill raised (or misbehaved) */
            return 0.0;
        }
        b->len = n;
        b->pos = 0;
    }
    return b->buf[b->pos++];
}

static double draw_sampler(ctx_t *c, const SamplerDesc *sd) {
    double v;
    bitgen_t *bg = (bitgen_t *)sd->bg;
    switch (sd->kind) {
    case SK_DET:
        v = sd->p1;
        break;
    case SK_EXPO:
        v = random_exponential(bg, sd->p1);
        break;
    case SK_GAMMA:
        v = random_gamma(bg, sd->p1, sd->p2);
        break;
    case SK_UNIFORM:
        /* Generator.uniform(low, high): low + (high-low)*U.  p1=low,
         * p2=high-low (the range is computed once in Python so the
         * subtraction rounding matches the Generator path). */
        v = random_uniform(bg, sd->p1, sd->p2);
        break;
    case SK_LOGNORMAL:
        v = random_lognormal(bg, sd->p1, sd->p2);
        break;
    case SK_WEIBULL:
        /* Weibull.sample: lam * rng.weibull(k); p1=lam, p2=k. */
        v = sd->p1 * random_weibull(bg, sd->p2);
        break;
    case SK_HYPER: {
        /* Mirrors the plain-generator sampler simulator._draw_plan
         * builds for HyperExponential: branch by bisect_right on the
         * CDF (count of entries <= u), then scale *
         * standard_exponential. */
        double u = random_standard_uniform(bg);
        int b = 0;
        while (b < sd->n_branches - 1 && sd->cdf[b] <= u) b++;
        v = sd->scales[b] * random_standard_exponential(bg);
        break;
    }
    case SK_PYBLOCK:
        v = block_next(c, sd->py_id);
        break;
    default: /* SK_PYCALL */
        v = c->service_cb(c->rep, sd->py_id);
        break;
    }
    /* Scaled/Shifted wrappers: ops are stored outermost-first, applied
     * innermost-first (reverse order), matching the Python nesting
     * f_outer(f_inner(x)). */
    for (int i = sd->n_post - 1; i >= 0; i--) {
        if (sd->post_op[i] == POST_MUL) v = sd->post_val[i] * v;
        else v = v + sd->post_val[i];
    }
    return v;
}

/* One service draw for (station, class).  Under dynamic speed control
 * the sampler yields the *demand* (work at speed 1) and the division
 * by the current speed happens at pull time -- the same expression
 * simulator._make_dynamic_sampler evaluates. */
static double draw_service(ctx_t *c, station_t *st, int cls) {
    double v = draw_sampler(c, &c->samplers[st->index * c->K + cls]);
    if (c->dynamic) v = v / c->cur_speed[st->index];
    return v;
}

/* Next arrival gap for class k (batch defaults to 1). */
static double next_gap(ctx_t *c, int k, long long *batch) {
    ArrivalDesc *ad = &c->arrivals[k];
    *batch = 1;
    switch (ad->kind) {
    case SK_EXPO:
        return random_exponential((bitgen_t *)ad->bg, ad->scale);
    case SK_PYBLOCK:
        return block_next(c, ad->py_id);
    case SK_TRACE: {
        /* TraceArrivalProcess.next_arrival: silent (infinite gap) when
         * exhausted; gap clipped at zero with Python max(gap, 0.0)
         * semantics (which keeps -0.0: max returns the first maximal,
         * and so does skipping the branch below). */
        if (ad->cursor >= ad->n_ts) return INFINITY;
        double tt = ad->ts[ad->cursor++];
        double gap = tt - ad->clock;
        ad->clock = tt;
        if (gap < 0.0) gap = 0.0;
        return gap;
    }
    default: /* SK_PYCALL */
        return c->arrival_cb(c->rep, k, batch);
    }
}

static int in_system_full(const station_t *st, int K) {
    int n = st->n_busy + st->fifo.len;
    if (st->queues != NULL)
        for (int k = 0; k < K; k++) n += st->queues[k].len;
    return n;
}

static void record_busy(station_t *st, int cls, double a, double b) {
    double lo = a > st->t0 ? a : st->t0;
    double hi = b < st->t1 ? b : st->t1;
    if (hi > lo) {
        double d = hi - lo;
        st->busy_total += d;
        st->class_busy[cls] += d;
    }
}

static int start_service(ctx_t *c, station_t *st, int jidx, int server_idx, double t) {
    job_t *j = &c->jobs.pool[jidx];
    double r = j->remaining;
    if (isnan(r)) {
        r = draw_service(c, st, j->cls);
        if (*c->abort_flag) return 1;
        j->remaining = r;
        j->service_total = r;
    }
    st->srv_job[server_idx] = jidx;
    st->srv_busy_since[server_idx] = t;
    st->srv_completion[server_idx] = t + r;
    st->start_counter++;
    st->srv_seq[server_idx] = st->start_counter;
    st->n_busy++;
    return 0;
}

static int resync(ctx_t *c, station_t *st) {
    st->sched_epoch++;
    double best = INFINITY;
    for (int i = 0; i < st->n_servers; i++)
        if (st->srv_job[i] >= 0 && st->srv_completion[i] < best) best = st->srv_completion[i];
    st->sched_time = best;
    if (best != INFINITY)
        return evq_push(&c->events, best, c->next_seq++, EV_COMPLETION, st->index, st->sched_epoch);
    return 0;
}

/* ------------------------ processor sharing ------------------------- */

/* Mirror of PSStation._elapse: decrement every job's remaining time by
 * the elapsed share and accrue windowed busy time. */
static void ps_elapse(ctx_t *c, station_t *st, double t) {
    double dt = t - st->ps_last_t;
    if (dt > 0.0 && st->ps_len > 0) {
        int n = st->ps_len;
        int cap = st->n_servers;
        double rate = n <= cap ? 1.0 : (double)cap / (double)n;
        double lo = st->ps_last_t > st->t0 ? st->ps_last_t : st->t0;
        double hi = t < st->t1 ? t : st->t1;
        if (hi > lo) {
            double w = hi - lo;
            st->busy_total += w * (double)(n < cap ? n : cap);
            /* Per-class busy shares: one add per present class into a
             * distinct accumulator element, so the Python dict's
             * insertion order and this ascending-class order produce
             * identical floats. */
            int *counts = c->scratch_counts;
            for (int k = 0; k < c->K; k++) counts[k] = 0;
            for (int idx = 0; idx < n; idx++)
                counts[c->jobs.pool[st->ps_jobs[idx]].cls]++;
            for (int k = 0; k < c->K; k++)
                if (counts[k] > 0)
                    st->class_busy[k] += w * ((double)counts[k] * rate);
        }
        double dec = dt * rate;
        for (int idx = 0; idx < n; idx++) {
            job_t *j = &c->jobs.pool[st->ps_jobs[idx]];
            double r = j->remaining - dec;
            j->remaining = r > 0.0 ? r : 0.0;
        }
    }
    st->ps_last_t = t;
}

/* Mirror of PSStation._reschedule. */
static int ps_reschedule(ctx_t *c, station_t *st, double t) {
    st->sched_epoch++;
    if (st->ps_len > 0) {
        int n = st->ps_len;
        int cap = st->n_servers;
        double rate = n <= cap ? 1.0 : (double)cap / (double)n;
        double mn = c->jobs.pool[st->ps_jobs[0]].remaining;
        for (int idx = 1; idx < n; idx++) {
            double r = c->jobs.pool[st->ps_jobs[idx]].remaining;
            if (r < mn) mn = r;
        }
        double t_next = mn / rate;
        st->sched_time = t + t_next;
        return evq_push(&c->events, t + t_next, c->next_seq++, EV_COMPLETION,
                         st->index, st->sched_epoch);
    }
    st->sched_time = INFINITY;
    return 0;
}

/* Mirror of PSStation.arrive (PS never rejects); 1 ok, -1 error. */
static int ps_arrive(ctx_t *c, station_t *st, double t, int jidx) {
    ps_elapse(c, st, t);
    job_t *j = &c->jobs.pool[jidx];
    j->station_arrival = t;
    double r = draw_service(c, st, j->cls);
    if (*c->abort_flag) return -1;
    j->remaining = r;
    j->service_total = r;
    if (st->ps_len == st->ps_cap) {
        int ncap = st->ps_cap * 2;
        int *nb = (int *)realloc(st->ps_jobs, sizeof(int) * ncap);
        if (nb == NULL) return -1;
        st->ps_jobs = nb;
        st->ps_cap = ncap;
    }
    st->ps_jobs[st->ps_len++] = jidx;
    if (ps_reschedule(c, st, t)) return -1;
    return 1;
}

/* Mirror of PSStation.complete (epoch staleness checked by the
 * caller); returns the finished job index, or -2 on error. */
static int ps_complete(ctx_t *c, station_t *st, double t) {
    ps_elapse(c, st, t);
    if (st->ps_len == 0) return -2;
    int best = 0;
    double br = c->jobs.pool[st->ps_jobs[0]].remaining;
    for (int idx = 1; idx < st->ps_len; idx++) {
        double r = c->jobs.pool[st->ps_jobs[idx]].remaining;
        if (r < br) { /* strict <: first minimal, like Python min() */
            br = r;
            best = idx;
        }
    }
    int jidx = st->ps_jobs[best];
    memmove(&st->ps_jobs[best], &st->ps_jobs[best + 1],
            sizeof(int) * (size_t)(st->ps_len - best - 1));
    st->ps_len--;
    if (ps_reschedule(c, st, t)) return -2;
    return jidx;
}

/* --------------------------- head-of-line --------------------------- */

/* Mirror of SimStation.arrive; returns 1 accepted, 0 rejected, -1 error. */
static int station_arrive(ctx_t *c, station_t *st, double t, int jidx) {
    if (st->discipline == DISC_PS) return ps_arrive(c, st, t, jidx);
    job_t *j = &c->jobs.pool[jidx];
    j->station_arrival = t;
    j->remaining = NAN;
    if (st->capacity >= 0 && in_system_full(st, c->K) >= st->capacity) return 0;
    if (st->n_busy < st->n_servers) {
        int idx = 0;
        while (st->srv_job[idx] >= 0) idx++;
        if (start_service(c, st, jidx, idx, t)) return -1;
        double comp = st->srv_completion[idx];
        if (comp < st->sched_time) {
            st->sched_epoch++;
            st->sched_time = comp;
            if (evq_push(&c->events, comp, c->next_seq++, EV_COMPLETION, st->index, st->sched_epoch))
                return -1;
        }
        return 1;
    }
    if (st->discipline == DISC_LOSS) return 0;
    if (st->discipline == DISC_PRIORITY_PR) {
        int worst_idx = -1;
        int worst_cls = j->cls;
        for (int i = 0; i < st->n_servers; i++) {
            int ji = st->srv_job[i];
            if (ji >= 0 && c->jobs.pool[ji].cls > worst_cls) {
                worst_idx = i;
                worst_cls = c->jobs.pool[ji].cls;
            }
        }
        if (worst_idx >= 0) {
            int vidx = st->srv_job[worst_idx];
            job_t *victim = &c->jobs.pool[vidx];
            record_busy(st, victim->cls, st->srv_busy_since[worst_idx], t);
            double rem = st->srv_completion[worst_idx] - t;
            victim->remaining = rem > 0.0 ? rem : 0.0;
            st->srv_job[worst_idx] = -1;
            st->n_busy--;
            if (dq_push_front(&st->queues[victim->cls], vidx)) return -1;
            if (start_service(c, st, jidx, worst_idx, t)) return -1;
            if (resync(c, st)) return -1;
            return 1;
        }
    }
    if (st->discipline == DISC_FCFS) {
        if (dq_push_back(&st->fifo, jidx)) return -1;
    } else {
        if (dq_push_back(&st->queues[j->cls], jidx)) return -1;
    }
    return 1;
}

/* Mirror of SimStation.complete; returns the finished job index, or -2
 * on error.  The stale-epoch check happens in the caller. */
static int station_complete(ctx_t *c, station_t *st, double t) {
    int idx = -1;
    double best_t = INFINITY;
    long long best_seq = 0;
    double runner_up = INFINITY;
    for (int i = 0; i < st->n_servers; i++) {
        if (st->srv_job[i] >= 0) {
            double ci = st->srv_completion[i];
            if (idx < 0) {
                idx = i;
                best_t = ci;
                best_seq = st->srv_seq[i];
            } else if (ci < best_t || (ci == best_t && st->srv_seq[i] < best_seq)) {
                if (best_t < runner_up) runner_up = best_t;
                idx = i;
                best_t = ci;
                best_seq = st->srv_seq[i];
            } else if (ci < runner_up) {
                runner_up = ci;
            }
        }
    }
    if (idx < 0) return -2;
    int jidx = st->srv_job[idx];
    job_t *j = &c->jobs.pool[jidx];
    record_busy(st, j->cls, st->srv_busy_since[idx], t);
    st->srv_job[idx] = -1;
    st->n_busy--;
    int nxt = -1;
    if (st->discipline == DISC_FCFS) {
        if (st->fifo.len) nxt = dq_pop_front(&st->fifo);
    } else if (st->queues != NULL) {
        for (int k = 0; k < c->K; k++) {
            if (st->queues[k].len) {
                nxt = dq_pop_front(&st->queues[k]);
                break;
            }
        }
    }
    double new_min = runner_up;
    if (nxt >= 0) {
        if (start_service(c, st, nxt, idx, t)) return -2;
        if (st->srv_completion[idx] < new_min) new_min = st->srv_completion[idx];
    }
    st->sched_epoch++;
    st->sched_time = new_min;
    if (new_min != INFINITY) {
        if (evq_push(&c->events, new_min, c->next_seq++, EV_COMPLETION, st->index, st->sched_epoch))
            return -2;
    }
    return jidx;
}

/* ------------------------ sampling & epochs ------------------------- */

/* Buffer one queue-length sample row (mirror of simulator._sample_queues
 * state reads; the telemetry emission is replayed by the flush). */
static int sample_queues_c(ctx_t *c, double t) {
    if (dbuf_push(&c->sample_ts, t)) return 1;
    for (int i = 0; i < c->M; i++) {
        station_t *st = &c->stations[i];
        long long n = (st->discipline == DISC_PS)
                          ? (long long)st->ps_len
                          : (long long)in_system_full(st, c->K);
        if (llbuf_push(&c->sample_vals, n)) return 1;
    }
    for (int i = 0; i < c->M; i++) {
        station_t *st = &c->stations[i];
        long long busy;
        if (st->discipline == DISC_PS)
            busy = st->ps_len < st->n_servers ? st->ps_len : st->n_servers;
        else
            busy = st->n_busy;
        if (llbuf_push(&c->sample_vals, busy)) return 1;
    }
    return 0;
}

static int flush_samples(ctx_t *c) {
    if (c->sample_cb == NULL || c->sample_ts.len == 0) return 0;
    int rc = c->sample_cb(c->rep, c->sample_ts.buf, c->sample_vals.buf, c->sample_ts.len);
    c->sample_ts.len = 0;
    c->sample_vals.len = 0;
    if (rc < 0 || *c->abort_flag) return 1;
    return 0;
}

/* Close every station's open busy intervals at t (server order, like
 * the engine's close_open_intervals; PS stations elapse to t) and
 * publish the busy totals. */
static void close_intervals(ctx_t *c, double t) {
    for (int i = 0; i < c->M; i++) {
        station_t *st = &c->stations[i];
        if (st->discipline == DISC_PS) {
            ps_elapse(c, st, t);
        } else {
            for (int s = 0; s < st->n_servers; s++) {
                int ji = st->srv_job[s];
                if (ji >= 0) {
                    record_busy(st, c->jobs.pool[ji].cls, st->srv_busy_since[s], t);
                    st->srv_busy_since[s] = t;
                }
            }
        }
        c->busy_out[i] = st->busy_total;
    }
}

/* One epoch boundary: close busy intervals at tb (exactly like the
 * engine's _accrue_segments call to close_open_intervals), publish the
 * per-tier busy totals and queue counts, flush buffered samples, yield
 * to the Python controller, and -- when it reports new speeds -- apply
 * the engine's work-preserving remaining-time rescale.  Returns
 * non-zero on error (abort flag distinguishes callback exceptions). */
static int fire_epoch(ctx_t *c, double tb) {
    close_intervals(c, tb);
    for (int i = 0; i < c->M; i++) {
        station_t *st = &c->stations[i];
        /* Queue counts in SimStation.class_counts order (servers, then
         * FIFO, then priority queues) -- integer adds, order-free. */
        long long *row = c->counts_out + (long long)i * c->K;
        for (int k = 0; k < c->K; k++) row[k] = 0;
        if (st->discipline == DISC_PS) {
            for (int idx = 0; idx < st->ps_len; idx++)
                row[c->jobs.pool[st->ps_jobs[idx]].cls]++;
        } else {
            for (int s = 0; s < st->n_servers; s++)
                if (st->srv_job[s] >= 0)
                    row[c->jobs.pool[st->srv_job[s]].cls]++;
            for (int q = 0; q < st->fifo.len; q++) {
                int ji = st->fifo.buf[(st->fifo.head + q) % st->fifo.cap];
                row[c->jobs.pool[ji].cls]++;
            }
            if (st->queues != NULL)
                for (int k = 0; k < c->K; k++)
                    for (int q = 0; q < st->queues[k].len; q++) {
                        dq_t *dq = &st->queues[k];
                        row[c->jobs.pool[dq->buf[(dq->head + q) % dq->cap]].cls]++;
                    }
        }
    }
    /* Samples recorded before this boundary reach the sink before the
     * epoch's own telemetry event, matching the engine's inline order. */
    if (flush_samples(c)) return 1;
    int decision = c->epoch_cb(c->rep, tb);
    if (decision < 0 || *c->abort_flag) return 1;
    if (decision > 0) {
        /* The callback wrote the full clipped speed vector into the
         * shared array; apply SimStation.rescale_remaining per tier.
         * (PS tiers cannot occur here: dynamic+PS is rejected at
         * validation.)  Speeds are clipped to the tier's DVFS range,
         * whose lower bound is positive, so ratio > 0. */
        for (int i = 0; i < c->M; i++) {
            station_t *st = &c->stations[i];
            double s_new = c->speeds[i];
            double s_old = c->cur_speed[i];
            if (s_new != s_old) {
                double ratio = s_old / s_new;
                /* rescale_remaining early-returns on an exact 1.0 ratio
                 * (possible for distinct speeds only through rounding)
                 * without re-arming the station. */
                if (ratio != 1.0) {
                    int changed = 0;
                    for (int s = 0; s < st->n_servers; s++) {
                        int ji = st->srv_job[s];
                        if (ji >= 0) {
                            double rem = st->srv_completion[s] - tb;
                            if (rem > 0.0) {
                                double new_rem = rem * ratio;
                                st->srv_completion[s] = tb + new_rem;
                                c->jobs.pool[ji].service_total += new_rem - rem;
                                changed = 1;
                            }
                        }
                    }
                    if (changed && resync(c, st)) return 1;
                }
                c->cur_speed[i] = s_new;
            }
        }
    }
    return 0;
}

/* Free the growable delay/log buffers the caller was not handed (a
 * failed replication's, or anything left at teardown) and leave them
 * empty for the next replication. */
static void drop_outputs(ctx_t *c) {
    if (c->delay_buf != NULL)
        for (int k = 0; k < c->K; k++) {
            free(c->delay_buf[k].buf);
            memset(&c->delay_buf[k], 0, sizeof(dbuf_t));
        }
    free(c->log.jid);
    free(c->log.cls);
    free(c->log.arrival);
    free(c->log.exit_t);
    memset(&c->log, 0, sizeof(logbuf_t));
}

static void free_ctx(ctx_t *c) {
    if (c->stations != NULL) {
        for (int i = 0; i < c->M; i++) {
            station_t *st = &c->stations[i];
            free(st->srv_job);
            free(st->srv_busy_since);
            free(st->srv_completion);
            free(st->srv_seq);
            free(st->fifo.buf);
            free(st->ps_jobs);
            if (st->queues != NULL) {
                for (int k = 0; k < c->K; k++) free(st->queues[k].buf);
                free(st->queues);
            }
        }
        free(c->stations);
    }
    if (c->blocks != NULL) {
        for (int b = 0; b < c->n_blocks; b++) free(c->blocks[b].buf);
        free(c->blocks);
    }
    free(c->samplers);
    free(c->arrivals);
    free(c->streams);
    free(c->bitgens);
    free(c->seeded);
    free(c->cur_speed);
    free(c->scratch_counts);
    free(c->sample_ts.buf);
    free(c->sample_vals.buf);
    free(c->events.buf);
    free(c->jobs.pool);
    free(c->jobs.free_list);
    drop_outputs(c);
    free(c->delay_buf);
}

void k_free(void *p) { free(p); }

/* ------------------- allocation / reset / core loop ------------------ */

static int native_kind(int kind) {
    return kind == SK_EXPO || kind == SK_GAMMA || kind == SK_UNIFORM ||
           kind == SK_LOGNORMAL || kind == SK_WEIBULL || kind == SK_HYPER;
}

/* Copy the call's descriptor templates into the arena and bind every
 * natively drawn slot (SK_EXPO arrivals, native samplers, routing
 * classes without a Python block) to its own stream; those slots are
 * the ones ctx_reset seeds.  Returns non-zero on OOM. */
static int bind_slots(ctx_t *c, const SamplerDesc *sampler_tpl, const ArrivalDesc *arrival_tpl) {
    int K = c->K;
    int km = K * c->M;
    int n_slots = 2 * K + km;
    c->samplers = (SamplerDesc *)malloc(sizeof(SamplerDesc) * km);
    c->arrivals = (ArrivalDesc *)malloc(sizeof(ArrivalDesc) * K);
    c->streams = (pcg64_t *)calloc(n_slots, sizeof(pcg64_t));
    c->bitgens = (bitgen_t *)calloc(n_slots, sizeof(bitgen_t));
    c->seeded = (int *)malloc(sizeof(int) * n_slots);
    if (c->samplers == NULL || c->arrivals == NULL || c->streams == NULL ||
        c->bitgens == NULL || c->seeded == NULL)
        return 1;
    memcpy(c->samplers, sampler_tpl, sizeof(SamplerDesc) * km);
    memcpy(c->arrivals, arrival_tpl, sizeof(ArrivalDesc) * K);
    for (int s = 0; s < n_slots; s++) bind_stream(&c->bitgens[s], &c->streams[s]);
    c->n_seeded = 0;
    for (int k = 0; k < K; k++)
        if (c->arrivals[k].kind == SK_EXPO) {
            c->arrivals[k].bg = &c->bitgens[k];
            c->seeded[c->n_seeded++] = k;
        }
    for (int x = 0; x < km; x++)
        if (native_kind(c->samplers[x].kind)) {
            c->samplers[x].bg = &c->bitgens[K + x];
            c->seeded[c->n_seeded++] = K + x;
        }
    if (c->has_routing)
        for (int k = 0; k < K; k++)
            if (c->routing_block[k] < 0) c->seeded[c->n_seeded++] = K + km + k;
    return 0;
}

/* One-time arena allocation: descriptor copies and stream slots, event
 * queue, job pool, scratch, Python block buffers, speed and
 * delay-buffer slots, and the per-station server arrays / queues / PS
 * pools.
 * Station geometry comes from the descriptors and never changes across
 * the replications of a batch; ctx_reset() rewinds the mutable state
 * between runs without touching any of these allocations.  Returns
 * non-zero on OOM (free_ctx cleans up whatever was allocated). */
static int ctx_alloc(ctx_t *c, const StationDesc *station_desc,
                     const SamplerDesc *sampler_tpl, const ArrivalDesc *arrival_tpl,
                     int n_blocks, long long block_size) {
    if (bind_slots(c, sampler_tpl, arrival_tpl)) return 1;
    c->events.cap = 256;
    c->events.buf = (ev_t *)malloc(sizeof(ev_t) * c->events.cap);
    if (c->events.buf == NULL || jp_init(&c->jobs)) return 1;

    c->scratch_counts = (int *)malloc(sizeof(int) * c->K);
    if (c->scratch_counts == NULL) return 1;
    if (c->dynamic) {
        c->cur_speed = (double *)malloc(sizeof(double) * c->M);
        if (c->cur_speed == NULL) return 1;
    }
    if (c->collect_delays) {
        c->delay_buf = (dbuf_t *)calloc(c->K, sizeof(dbuf_t));
        if (c->delay_buf == NULL) return 1;
    }

    c->n_blocks = n_blocks;
    if (n_blocks > 0) {
        c->blocks = (blockbuf_t *)calloc(n_blocks, sizeof(blockbuf_t));
        if (c->blocks == NULL) return 1;
        for (int b = 0; b < n_blocks; b++) {
            c->blocks[b].cap = block_size;
            c->blocks[b].buf = (double *)malloc(sizeof(double) * block_size);
            if (c->blocks[b].buf == NULL) return 1;
        }
    }

    c->stations = (station_t *)calloc(c->M, sizeof(station_t));
    if (c->stations == NULL) return 1;
    for (int i = 0; i < c->M; i++) {
        station_t *st = &c->stations[i];
        st->index = i;
        st->n_servers = station_desc[i].servers;
        st->discipline = station_desc[i].discipline;
        st->capacity = station_desc[i].capacity;
        st->srv_job = (int *)malloc(sizeof(int) * st->n_servers);
        st->srv_busy_since = (double *)calloc(st->n_servers, sizeof(double));
        st->srv_completion = (double *)calloc(st->n_servers, sizeof(double));
        st->srv_seq = (long long *)calloc(st->n_servers, sizeof(long long));
        if (st->srv_job == NULL || st->srv_busy_since == NULL ||
            st->srv_completion == NULL || st->srv_seq == NULL)
            return 1;
        if (dq_init(&st->fifo)) return 1;
        if (st->discipline == DISC_PS) {
            st->ps_cap = 16;
            st->ps_jobs = (int *)malloc(sizeof(int) * st->ps_cap);
            if (st->ps_jobs == NULL) return 1;
        } else if (st->discipline != DISC_FCFS) {
            st->queues = (dq_t *)calloc(c->K, sizeof(dq_t));
            if (st->queues == NULL) return 1;
            for (int k = 0; k < c->K; k++)
                if (dq_init(&st->queues[k])) return 1;
        }
    }
    return 0;
}

/* Rewind every piece of mutable state to time zero and seed the
 * replication's native streams from its n_words seed words.  Callers
 * point the per-run outputs (class_busy, wait_sum, ..., wf_*) at the
 * right slices before run_core; allocations made by ctx_alloc are
 * reused. */
static void ctx_reset(ctx_t *c, const uint32_t *words, long long n_words) {
    if (c->n_seeded > 0) {
        seedseq_t pool;
        ss_init(&pool, words, n_words);
        for (int i = 0; i < c->n_seeded; i++) {
            int slot = c->seeded[i];
            seed_stream(&c->streams[slot], &pool, c->digests[slot]);
        }
    }
    for (int k = 0; k < c->K; k++) {
        c->arrivals[k].cursor = 0;
        c->arrivals[k].clock = 0.0;
    }
    c->next_seq = 1;
    c->events.len = 0;
    c->jobs.used = 0;
    c->jobs.free_len = 0;
    c->sample_ts.len = 0;
    c->sample_vals.len = 0;
    for (int i = 0; i < c->M; i++) {
        station_t *st = &c->stations[i];
        for (int s = 0; s < st->n_servers; s++) {
            st->srv_job[s] = -1;
            st->srv_busy_since[s] = 0.0;
            st->srv_completion[s] = 0.0;
            st->srv_seq[s] = 0;
        }
        st->n_busy = 0;
        st->start_counter = 0;
        st->sched_epoch = 0;
        st->sched_time = INFINITY;
        st->fifo.head = 0;
        st->fifo.len = 0;
        if (st->queues != NULL)
            for (int k = 0; k < c->K; k++) {
                st->queues[k].head = 0;
                st->queues[k].len = 0;
            }
        st->ps_len = 0;
        st->ps_last_t = 0.0;
        st->t0 = c->warmup;
        st->t1 = c->horizon;
        st->busy_total = 0.0;
    }
    for (int b = 0; b < c->n_blocks; b++) {
        c->blocks[b].len = 0;
        c->blocks[b].pos = 0;
    }
}

/* One routing uniform for class k: from the class's Python-refilled
 * block (antithetic streams) or straight off its routing slot. */
static double route_uniform(ctx_t *c, int k) {
    int blk = c->routing_block[k];
    if (blk >= 0) return block_next(c, blk);
    return random_standard_uniform(&c->bitgens[c->K + c->K * c->M + k]);
}

/* Seed the initial arrivals, run the event loop to the horizon, flush
 * buffered samples, close open busy intervals and write the four out
 * scalars.  All error paths leave buffers owned by the ctx. */
static int run_core(ctx_t *c) {
    double horizon = c->horizon;
    double warmup = c->warmup;
    int M = c->M;

    /* Seed initial arrivals (class order, like the Python setup). */
    long long jid = 0;
    for (int k = 0; k < c->K; k++) {
        long long batch;
        double gap = next_gap(c, k, &batch);
        if (*c->abort_flag) return RC_ABORT;
        if (evq_push(&c->events, gap, c->next_seq++, EV_ARRIVAL, k, batch)) return RC_NOMEM;
    }

    long long n_warmup_discarded = 0;
    int hit_horizon = 0;
    long long epoch_idx = 0;
    double next_epoch = (c->dynamic && c->n_epochs > 0) ? c->epoch_times[0] : INFINITY;
    c->next_sample_t = c->sample_interval > 0.0 ? warmup : INFINITY;

    while (c->events.len) {
        ev_t ev = c->events.buf[--c->events.len];
        double t = ev.t;
        if (t > horizon) {
            hit_horizon = 1;
            break;
        }
        if (t >= c->next_sample_t) {
            if (sample_queues_c(c, t)) return *c->abort_flag ? RC_ABORT : RC_NOMEM;
            while (c->next_sample_t <= t) c->next_sample_t += c->sample_interval;
        }
        if (t >= next_epoch) {
            /* Fire at the boundary's nominal time (no event lies in
             * (previous event, t), so the state is valid there); a
             * rescaled completion popped this iteration is caught by
             * the sched_epoch staleness check below. */
            while (next_epoch <= t) {
                if (fire_epoch(c, next_epoch))
                    return *c->abort_flag ? RC_ABORT : RC_NOMEM;
                epoch_idx++;
                next_epoch = epoch_idx < c->n_epochs ? c->epoch_times[epoch_idx] : INFINITY;
            }
        }
        if (ev.kind == EV_COMPLETION) {
            station_t *st = &c->stations[ev.a];
            if (ev.b != st->sched_epoch) continue; /* stale, re-armed */
            int jidx = (st->discipline == DISC_PS) ? ps_complete(c, st, t)
                                                   : station_complete(c, st, t);
            if (jidx == -2) return *c->abort_flag ? RC_ABORT : RC_INVARIANT;
            job_t *j = &c->jobs.pool[jidx];
            int counted = j->arrival >= warmup;
            int here = j->cur;
            int k = j->cls;
            if (counted) {
                double sj = t - j->station_arrival;
                long long cell = (long long)k * M + here;
                c->wait_sum[cell] += sj - j->service_total;
                c->sojourn_sum[cell] += sj;
                c->visit_count[cell] += 1;
            }
            int nxt_station;
            int continuing;
            if (c->has_routing) {
                double u = route_uniform(c, k);
                if (*c->abort_flag) return RC_ABORT;
                const double *row = c->trans_cum[k] + (long long)here * M;
                int nxt = -1;
                if (u <= row[M - 1]) {
                    nxt = 0;
                    while (nxt < M && row[nxt] < u) nxt++;
                }
                continuing = nxt >= 0;
                nxt_station = nxt;
            } else {
                j->hop++;
                continuing = j->hop < c->route_len[k];
                nxt_station = continuing ? c->routes[k][j->hop] : -1;
            }
            if (continuing) {
                if (nxt_station < 0) nxt_station = M - 1; /* Python's [-1] indexing */
                j->cur = nxt_station;
                int accepted = station_arrive(c, &c->stations[nxt_station], t, jidx);
                if (accepted < 0) return *c->abort_flag ? RC_ABORT : RC_NOMEM;
                if (counted) {
                    c->offered[(long long)k * M + nxt_station] += 1;
                    if (!accepted) c->n_blocked[(long long)k * M + nxt_station] += 1;
                }
                if (!accepted && jp_release(&c->jobs, jidx)) return RC_NOMEM;
            } else if (counted) {
                /* stats.Welford.add: n += 1; delta = x - mean;
                 * mean += delta / n; m2 += delta * (x - mean).  The
                 * build passes -ffp-contract=off so no target fuses the
                 * last line into an FMA. */
                double x = t - j->arrival;
                long long n = ++c->wf_n[k];
                double delta = x - c->wf_mean[k];
                c->wf_mean[k] += delta / (double)n;
                c->wf_m2[k] += delta * (x - c->wf_mean[k]);
                if (c->collect_delays && dbuf_push(&c->delay_buf[k], x)) return RC_NOMEM;
                if (c->collect_log && logbuf_push(&c->log, j->jid, k, j->arrival, t))
                    return RC_NOMEM;
                if (jp_release(&c->jobs, jidx)) return RC_NOMEM;
            } else {
                n_warmup_discarded++;
                if (jp_release(&c->jobs, jidx)) return RC_NOMEM;
            }
        } else {
            int k = ev.a;
            for (long long i = 0; i < ev.b; i++) {
                jid++;
                int entry;
                int jidx = jp_alloc(&c->jobs);
                if (jidx < 0) return RC_NOMEM;
                job_t *j = &c->jobs.pool[jidx];
                if (c->has_routing) {
                    double u = route_uniform(c, k);
                    if (*c->abort_flag) return RC_ABORT;
                    const double *cum = c->entry_cum[k];
                    entry = -1;
                    if (u <= cum[M - 1]) {
                        entry = 0;
                        while (entry < M && cum[entry] < u) entry++;
                    }
                    if (entry < 0) entry = M - 1; /* Python's [-1] indexing */
                } else {
                    entry = c->routes[k][0];
                }
                j->jid = jid;
                j->cls = k;
                j->hop = 0;
                j->cur = entry;
                j->arrival = t;
                j->station_arrival = t;
                j->remaining = NAN;
                j->service_total = 0.0;
                int accepted = station_arrive(c, &c->stations[entry], t, jidx);
                if (accepted < 0) return *c->abort_flag ? RC_ABORT : RC_NOMEM;
                if (t >= warmup) {
                    c->offered[(long long)k * M + entry] += 1;
                    if (!accepted) c->n_blocked[(long long)k * M + entry] += 1;
                }
                if (!accepted && jp_release(&c->jobs, jidx)) return RC_NOMEM;
            }
            long long batch;
            double gap = next_gap(c, k, &batch);
            if (*c->abort_flag) return RC_ABORT;
            if (evq_push(&c->events, t + gap, c->next_seq++, EV_ARRIVAL, k, batch)) return RC_NOMEM;
        }
    }

    /* Samples buffered since the last epoch boundary (or the whole run
     * when no controller is attached) flush once, after the loop. */
    if (flush_samples(c)) return *c->abort_flag ? RC_ABORT : RC_NOMEM;

    close_intervals(c, horizon);

    /* processed events = pushes - still-enqueued - the post-horizon pop */
    long long pushes = c->next_seq - 1;
    c->out_scalars[0] = jid;
    c->out_scalars[1] = pushes - c->events.len - (hit_horizon ? 1 : 0);
    c->out_scalars[2] = n_warmup_discarded;
    c->out_scalars[3] = hit_horizon;
    return RC_OK;
}


static long long monotonic_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* The kernel's one entry point: run n_reps independent replications of
 * one scenario back to back on a single arena (a single simulate() call
 * is a batch of one).  Station geometry, routes/routing tables, the
 * epoch schedule and one sampler/arrival/routing descriptor template
 * are shared; every replication brings its own seed words and gets its
 * own output slices.  The descriptor copies, stream slots, event queue,
 * job pool, station arrays and Python block buffers are allocated once
 * by ctx_alloc and rewound by ctx_reset between replications, so the
 * Python->C boundary is crossed once per batch.
 *
 * Replication b's native streams are seeded from seed_words[seed_off[b]
 * .. seed_off[b+1]) and the slot digests (see ctx_t.streams).
 * seed_words may be NULL only when no slot draws natively (antithetic
 * seeds, whose streams all come through Python blocks).
 *
 * Optional features switch on by pointer: routing tables (entry_cum_v
 * non-NULL, fixed routes otherwise), epoch yields (epoch_cb non-NULL),
 * queue sampling (sample_interval > 0), per-job delay samples
 * (delay_ptrs) and the job log (log_ptrs).  Delay moments are always
 * folded inline through the Welford recurrence.  Growable delay/log
 * buffers are handed to the caller, who copies them and k_free()s.
 *
 * Each replication's RC_* code goes to rc_out and its CLOCK_MONOTONIC
 * time (seeding, loop and output handoff) to the fifth out scalar; a
 * failed replication costs only itself (the next one starts on reset
 * state), and the return value is the first failure's code, or RC_OK. */
int run_kernel(
    int n_reps, int K, int M, double horizon, double warmup,
    const StationDesc *station_desc,
    const SamplerDesc *samplers,    /* M*K template */
    const ArrivalDesc *arrivals,    /* K template */
    void **routes_v, int *route_len,
    void **entry_cum_v, void **trans_cum_v,
    int *routing_block,             /* K (routing mode) */
    const uint32_t *seed_words, const long long *seed_off, /* flat words, n_reps+1 offsets */
    const uint64_t *digests,        /* 2K + M*K slot name digests */
    int n_blocks, long long block_size, /* Python block buffers per replication */
    long long n_epochs, const double *epoch_times,
    double *speeds,                 /* n_reps blocks of M (epoch mode) */
    long long *counts_out,          /* M*K queue counts per epoch */
    double sample_interval,
    service_cb_t service_cb, arrival_cb_t arrival_cb, refill_cb_t refill_cb,
    epoch_cb_t epoch_cb, sample_cb_t sample_cb, int *abort_flag,
    double *wait_sum, double *sojourn_sum, long long *visit_count,
    long long *n_blocked, long long *offered, /* n_reps blocks of K*M */
    double *busy_total,             /* n_reps blocks of M */
    double *class_busy,             /* n_reps blocks of M*K */
    long long *out_scalars,         /* n_reps blocks of 5 */
    long long *wf_n, double *wf_mean, double *wf_m2, /* n_reps blocks of K */
    void **delay_ptrs, long long *delay_counts,      /* n_reps blocks of K */
    void **log_ptrs, long long *log_count,           /* n_reps blocks of 4 / 1 */
    int *rc_out)
{
    ctx_t c;
    memset(&c, 0, sizeof(c));
    c.K = K;
    c.M = M;
    c.horizon = horizon;
    c.warmup = warmup;
    c.has_routing = entry_cum_v != NULL;
    c.routes = (int **)routes_v;
    c.route_len = route_len;
    c.entry_cum = (double **)entry_cum_v;
    c.trans_cum = (double **)trans_cum_v;
    c.routing_block = routing_block;
    c.digests = digests;
    c.service_cb = service_cb;
    c.arrival_cb = arrival_cb;
    c.refill_cb = refill_cb;
    c.abort_flag = abort_flag;
    c.dynamic = epoch_cb != NULL;
    c.n_epochs = n_epochs;
    c.epoch_times = epoch_times;
    c.counts_out = counts_out;
    c.epoch_cb = epoch_cb;
    c.sample_interval = sample_interval;
    c.sample_cb = sample_cb;
    c.collect_delays = delay_ptrs != NULL;
    c.collect_log = log_ptrs != NULL;

    int alloc_rc = ctx_alloc(&c, station_desc, samplers, arrivals, n_blocks, block_size)
                       ? RC_NOMEM
                       : (c.n_seeded > 0 && seed_words == NULL) ? RC_INVARIANT : RC_OK;
    if (alloc_rc != RC_OK) {
        free_ctx(&c);
        for (int b = 0; b < n_reps; b++) rc_out[b] = alloc_rc;
        return alloc_rc;
    }
    int first_rc = RC_OK;
    size_t km = (size_t)K * M;
    for (int b = 0; b < n_reps; b++) {
        long long t0 = monotonic_ns();
        c.rep = b;
        if (c.dynamic) {
            c.speeds = speeds + (size_t)b * M;
            for (int i = 0; i < M; i++) c.cur_speed[i] = c.speeds[i];
        }
        c.wait_sum = wait_sum + (size_t)b * km;
        c.sojourn_sum = sojourn_sum + (size_t)b * km;
        c.visit_count = visit_count + (size_t)b * km;
        c.n_blocked = n_blocked + (size_t)b * km;
        c.offered = offered + (size_t)b * km;
        c.busy_out = busy_total + (size_t)b * M;
        c.out_scalars = out_scalars + (size_t)b * 5;
        c.wf_n = wf_n + (size_t)b * K;
        c.wf_mean = wf_mean + (size_t)b * K;
        c.wf_m2 = wf_m2 + (size_t)b * K;
        for (int i = 0; i < M; i++)
            c.stations[i].class_busy = class_busy + ((size_t)b * M + i) * K;
        *abort_flag = 0;
        if (seed_words != NULL)
            ctx_reset(&c, seed_words + seed_off[b], seed_off[b + 1] - seed_off[b]);
        else
            ctx_reset(&c, NULL, 0);
        int rc = run_core(&c);
        rc_out[b] = rc;
        if (rc != RC_OK) {
            if (first_rc == RC_OK) first_rc = rc;
        } else {
            if (c.collect_delays)
                for (int k = 0; k < K; k++) {
                    delay_ptrs[(size_t)b * K + k] = c.delay_buf[k].buf;
                    delay_counts[(size_t)b * K + k] = c.delay_buf[k].len;
                    c.delay_buf[k].buf = NULL;
                }
            if (c.collect_log) {
                void **lp = log_ptrs + (size_t)b * 4;
                lp[0] = c.log.jid;
                lp[1] = c.log.cls;
                lp[2] = c.log.arrival;
                lp[3] = c.log.exit_t;
                log_count[b] = c.log.len;
                memset(&c.log, 0, sizeof(logbuf_t));
            }
        }
        drop_outputs(&c);
        c.out_scalars[4] = monotonic_ns() - t0;
    }
    free_ctx(&c);
    return first_rc;
}

/* Test probe for the differential seeding test: seed one stream exactly
 * as ctx_reset does (n_words >= 4 seed words, then the name digest),
 * write its initial (state_hi, state_lo, inc_hi, inc_lo), then run ops
 * through the stream's bitgen_t (0 next_uint64, 1 next_uint32,
 * 2 next_double as its bit pattern, 3 next_raw) into draws_out. */
void k_stream_probe(const uint32_t *words, long long n_words, uint64_t digest,
                    const int *ops, long long n_ops, uint64_t *state_out, uint64_t *draws_out) {
    seedseq_t pool;
    pcg64_t p;
    bitgen_t bg;
    ss_init(&pool, words, n_words);
    seed_stream(&p, &pool, digest);
    bind_stream(&bg, &p);
    state_out[0] = (uint64_t)(p.state >> 64);
    state_out[1] = (uint64_t)p.state;
    state_out[2] = (uint64_t)(p.inc >> 64);
    state_out[3] = (uint64_t)p.inc;
    for (long long i = 0; i < n_ops; i++) {
        double d;
        switch (ops[i]) {
        case 0: draws_out[i] = bg.next_uint64(bg.state); break;
        case 1: draws_out[i] = bg.next_uint32(bg.state); break;
        case 2:
            d = bg.next_double(bg.state);
            memcpy(&draws_out[i], &d, sizeof(d));
            break;
        default: draws_out[i] = bg.next_raw(bg.state); break;
        }
    }
}
