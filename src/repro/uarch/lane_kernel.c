/*
 * The timing kernel: one machine configuration over one decoded trace, in C.
 *
 * This is TimingSimulator's stage sequence (retire -> complete -> issue ->
 * rename -> fetch -> occupancy accounting) flattened into one loop over flat
 * per-sequence arrays.  Provably idle cycle spans are skipped by jumping
 * straight to the next scheduled event and bulk-charging the per-cycle
 * accounting, so a skipped span is bit-identical to a stepped one.  Every
 * branch mirrors repro.uarch.pipeline exactly; the golden-equivalence tests,
 * tests/test_lane_kernel.py and the `kernel` fuzz oracle compare the two bit
 * for bit.
 *
 * The replayed trace has no wrong path, so a dynamic entity's sequence number
 * is its trace index.  The front end is the sequence range [renamed, fetched)
 * and the reorder buffer is [retired, renamed); every other structure is
 * sized from the trace length, the decode tables and the machine geometry,
 * and every insertion is bounds-checked: a broken invariant returns
 * LANE_INTERNAL and never touches memory the call does not own.
 *
 * The kernel is reentrant: all state lives in the call's locals and its own
 * heap allocations, so concurrent calls (ctypes releases the GIL) never
 * share anything mutable.
 *
 * Built on first use by repro/native.py (into one library with the functional
 * core) and called through ctypes from lane_kernel.py.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NEVER (-1)
#define FOREVER ((int64_t)1 << 62)

/* Trace-entry flags (repro.sim.trace TF_*). */
#define TF_CONTROL 0x01
#define TF_TAKEN 0x04
#define TF_LOAD 0x08
#define TF_STORE 0x10
#define TF_HAS_EA 0x20
#define TF_MEMORY (TF_LOAD | TF_STORE)

/* Decode kinds (repro.uarch.decode KIND_*); anything else cannot issue. */
enum { KIND_INT, KIND_FP, KIND_LOAD, KIND_STORE, KIND_HANDLE };

/* Per-static-op decode bits (lane_kernel.py OP_BITS). */
#define OP_NEEDS_DEST 0x01
#define OP_IS_COND 0x02
#define OP_IS_HANDLE 0x04
#define OP_INTEGER_ONLY 0x08
#define OP_HAS_LOAD 0x10
#define OP_HAS_INTERIOR_LOAD 0x20
#define OP_HAS_STORE 0x40
#define OP_OUT_IS_LAST 0x80

/* Normalized functional units of MGHT headers (lane_kernel.py UNIT_CODES);
 * FU_NONE marks a FUBMP cycle that needs no unit. */
enum { FU_ALU, FU_AP, FU_LD, FU_ST, FU_OTHER, FU_KINDS };
#define FU_NONE (-1)

/* Machine configuration vector (lane_kernel.py CONFIG_FIELDS). */
enum {
    CF_FETCH_WIDTH, CF_RENAME_WIDTH, CF_ISSUE_WIDTH, CF_RETIRE_WIDTH,
    CF_FRONT_END_DEPTH, CF_REGISTER_READ_LATENCY, CF_SCHEDULER_LATENCY,
    CF_ROB_SIZE, CF_ISSUE_QUEUE_SIZE, CF_LSQ_SIZE,
    CF_PHYSICAL_REGISTERS, CF_ARCHITECTED_REGISTERS,
    CF_PLAIN_ALU_UNITS, CF_ALU_PIPELINES, CF_FP_UNITS, CF_LOAD_PORTS,
    CF_STORE_PORTS, CF_MAX_MEMORY_HANDLES, CF_SLIDING_WINDOW,
    CF_REPLAY_PENALTY, CF_REDIRECT_PENALTY, CF_ORDERING_PENALTY,
    CF_PREDICTOR_ENTRIES, CF_BTB_ENTRIES, CF_BTB_ASSOCIATIVITY,
    CF_ICACHE_SIZE, CF_ICACHE_ASSOCIATIVITY, CF_ICACHE_LINE, CF_ICACHE_HIT,
    CF_DCACHE_SIZE, CF_DCACHE_ASSOCIATIVITY, CF_DCACHE_LINE, CF_DCACHE_HIT,
    CF_L2_SIZE, CF_L2_ASSOCIATIVITY, CF_L2_LINE, CF_L2_HIT,
    CF_MEMORY_LATENCY, CF_STORE_SET_ENTRIES,
    CF_COUNT
};

/* Result codes (lane_kernel.py LANE_*). */
enum {
    LANE_OK, LANE_WATCHDOG, LANE_NEEDS_SLIDING_WINDOW, LANE_UNISSUABLE,
    LANE_NO_MEMORY, LANE_INTERNAL
};

/* Statistics, in repro.uarch.stats.PipelineStats field order. */
enum {
    OUT_CYCLES, OUT_COMMITTED_INSTRUCTIONS, OUT_COMMITTED_SLOTS,
    OUT_COMMITTED_HANDLES, OUT_FETCHED_SLOTS, OUT_FETCH_STALL_CYCLES,
    OUT_RENAME_STALL_CYCLES, OUT_ISSUE_SLOTS_USED, OUT_BRANCH_LOOKUPS,
    OUT_BRANCH_MISPREDICTIONS, OUT_ICACHE_MISSES, OUT_DCACHE_ACCESSES,
    OUT_DCACHE_MISSES, OUT_LOADS_EXECUTED, OUT_STORES_EXECUTED,
    OUT_ORDERING_VIOLATIONS, OUT_MINIGRAPH_REPLAYS,
    OUT_SLIDING_WINDOW_CONFLICTS, OUT_STALL_ROB_FULL, OUT_STALL_IQ_FULL,
    OUT_STALL_LSQ_FULL, OUT_STALL_NO_PHYSICAL_REGISTER,
    OUT_ROB_OCCUPANCY_SUM, OUT_IQ_OCCUPANCY_SUM,
    OUT_PHYSICAL_REGISTERS_IN_USE_SUM,
    OUT_COUNT
};

/* The shared trace facts: per-entry trace columns plus per-static-op
 * tables indexed by each entry's static index.  Field order is mirrored by
 * lane_kernel.py _LaneTrace. */
typedef struct {
    int64_t total;              /* trace entries */
    int64_t ops;                /* rows of every per-op table */
    int64_t fubmp_len;          /* length of the flattened FUBMP codes */
    const uint8_t *flags;       /* per entry: TF_* */
    const uint64_t *next_pc;
    const uint64_t *ea;
    const uint32_t *index;      /* static op of the entry */
    const uint8_t *kind;        /* per static op: KIND_* */
    const uint8_t *bits;        /* OP_* */
    const uint64_t *pc;
    const uint64_t *addr;       /* fetch address (layout-resolved) */
    const int32_t *size;        /* original instructions */
    const int32_t *latency;
    const int32_t *src0;        /* -1: no source */
    const int32_t *src1;
    const int32_t *dest;        /* -1: no destination */
    const int32_t *execution_cycles;
    const int32_t *header_lat;
    const int8_t *fu0;          /* FU_* */
    const int32_t *fubmp_start; /* first FUBMP code of the op */
    const int32_t *fubmp_count; /* FUBMP codes of the op */
    const int8_t *fubmp;        /* flattened FU_* / FU_NONE codes */
} lane_trace;

/* -- allocation ----------------------------------------------------------- */

#define MAX_ALLOCS 40

typedef struct {
    void *blocks[MAX_ALLOCS];
    int count;
    int failed;
} arena;

/* Zeroed storage for `count` items of `size` bytes (at least one item), or
 * NULL with `failed` set. */
static void *take(arena *a, int64_t count, size_t size)
{
    void *block;
    if (a->failed)
        return NULL;
    if (count < 1)
        count = 1;
    if (a->count == MAX_ALLOCS || (uint64_t)count > SIZE_MAX / size) {
        a->failed = 1;
        return NULL;
    }
    block = calloc((size_t)count, size);
    if (block == NULL) {
        a->failed = 1;
        return NULL;
    }
    a->blocks[a->count++] = block;
    return block;
}

static void release(arena *a)
{
    while (a->count)
        free(a->blocks[--a->count]);
}

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }
static int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }

static int64_t pow2_above(int64_t value)
{
    int64_t size = 1;
    while (size <= value)
        size <<= 1;
    return size;
}

/* -- event queues --------------------------------------------------------- */

/* A min-heap of (cycle, order, sequence).  As per-cycle buckets, the events
 * of one cycle pop in insertion order, like appends to a bucket list; keyed
 * by sequence number it is the age-ordered ready heap.  Each sequence is
 * queued at most once per queue, so the trace length bounds it. */
typedef struct {
    int64_t when, order;
    int32_t seq;
} event;

typedef struct {
    event *items;
    int64_t count, capacity, added;
} events;

static int event_before(const event *a, const event *b)
{
    return a->when < b->when || (a->when == b->when && a->order < b->order);
}

static int events_push(events *q, int64_t when, int32_t seq)
{
    event item;
    int64_t at, parent;
    if (q->count == q->capacity)
        return 0;
    item.when = when;
    item.order = q->added++;
    item.seq = seq;
    at = q->count++;
    while (at > 0) {
        parent = (at - 1) >> 1;
        if (!event_before(&item, &q->items[parent]))
            break;
        q->items[at] = q->items[parent];
        at = parent;
    }
    q->items[at] = item;
    return 1;
}

static int32_t events_pop(events *q)
{
    int32_t seq = q->items[0].seq;
    event last = q->items[--q->count];
    int64_t at = 0, child;
    while ((child = 2 * at + 1) < q->count) {
        if (child + 1 < q->count
                && event_before(&q->items[child + 1], &q->items[child]))
            child++;
        if (!event_before(&q->items[child], &last))
            break;
        q->items[at] = q->items[child];
        at = child;
    }
    if (q->count)
        q->items[at] = last;
    return seq;
}

/* Drop every event due by `cycle` (handles whose execution has ended). */
static void events_expire(events *q, int64_t cycle)
{
    while (q->count && q->items[0].when <= cycle)
        events_pop(q);
}

/* Whether the bucket of `cycle` is non-empty (no bucket is ever older). */
static int events_due(const events *q, int64_t cycle)
{
    return q->count && q->items[0].when == cycle;
}

/* -- caches --------------------------------------------------------------- */

/* Set-associative tag store with LRU order kept most-recent first; `ways`
 * is the associativity capped by the distinct tags the trace can bring. */
typedef struct {
    uint64_t line, sets;
    int64_t assoc, ways;
    uint64_t *tags;
    int64_t *count;
} cache;

static void cache_init(arena *a, cache *c, int64_t size, int64_t assoc,
                       int64_t line, int64_t distinct)
{
    c->line = (uint64_t)line;
    c->sets = (uint64_t)(size / (assoc * line));
    c->assoc = assoc;
    c->ways = min64(assoc, distinct);
    c->count = take(a, (int64_t)c->sets, sizeof(int64_t));
    c->tags = c->count == NULL || c->ways > INT64_MAX / (int64_t)c->sets
        ? NULL : take(a, (int64_t)c->sets * c->ways, sizeof(uint64_t));
    if (c->tags == NULL)
        a->failed = 1;
}

/* 1 on a hit, 0 on a miss (the line is installed), -1 on overflow. */
static int cache_access(cache *c, uint64_t tag)
{
    uint64_t set = tag % c->sets;
    uint64_t *entries = c->tags + set * (uint64_t)c->ways;
    int64_t *count = c->count + set, i, keep;
    for (i = 0; i < *count; i++) {
        if (entries[i] == tag) {
            memmove(entries + 1, entries, (size_t)i * sizeof(uint64_t));
            entries[0] = tag;
            return 1;
        }
    }
    keep = *count < c->assoc ? *count : c->assoc - 1;
    if (keep >= c->ways)
        return -1;
    memmove(entries + 1, entries, (size_t)keep * sizeof(uint64_t));
    entries[0] = tag;
    *count = keep + 1;
    return 0;
}

/* -- branch target buffer ------------------------------------------------- */

/* Set-associative (pc, target) pairs, most recent first. */
typedef struct {
    uint64_t sets;
    int64_t assoc, ways;
    uint64_t *pc, *target;
    int64_t *count;
} btb;

static void btb_init(arena *a, btb *b, int64_t entries, int64_t assoc,
                     int64_t distinct)
{
    b->pc = b->target = NULL;
    b->sets = (uint64_t)(entries / assoc);
    b->assoc = assoc;
    b->ways = min64(assoc, distinct);
    b->count = take(a, (int64_t)b->sets, sizeof(int64_t));
    if (b->count == NULL || b->ways > INT64_MAX / (int64_t)b->sets) {
        a->failed = 1;
        return;
    }
    b->pc = take(a, (int64_t)b->sets * b->ways, sizeof(uint64_t));
    b->target = take(a, (int64_t)b->sets * b->ways, sizeof(uint64_t));
}

/* Move `at` of a set to the front, shifting the entries before it. */
static void btb_promote(uint64_t *pc, uint64_t *target, int64_t at)
{
    uint64_t moved_pc = pc[at], moved_target = target[at];
    memmove(pc + 1, pc, (size_t)at * sizeof(uint64_t));
    memmove(target + 1, target, (size_t)at * sizeof(uint64_t));
    pc[0] = moved_pc;
    target[0] = moved_target;
}

/* Fetch-time lookup: 1 and the target if `pc` hits (promoted to MRU). */
static int btb_lookup(btb *b, uint64_t pc, uint64_t shifted, uint64_t *target)
{
    uint64_t base = (shifted % b->sets) * (uint64_t)b->ways;
    int64_t i, count = b->count[shifted % b->sets];
    for (i = 0; i < count; i++) {
        if (b->pc[base + i] == pc) {
            if (i)
                btb_promote(b->pc + base, b->target + base, i);
            *target = b->target[base];
            return 1;
        }
    }
    return 0;
}

/* Resolution-time install of a taken transfer; 0 on overflow. */
static int btb_install(btb *b, uint64_t pc, uint64_t shifted, uint64_t target)
{
    uint64_t set = shifted % b->sets, base = set * (uint64_t)b->ways;
    uint64_t *pcs = b->pc + base, *targets = b->target + base;
    int64_t i, count = b->count[set], keep;
    for (i = 0; i < count; i++) {
        if (pcs[i] == pc) {
            size_t tail = (size_t)(count - i - 1) * sizeof(uint64_t);
            memmove(pcs + i, pcs + i + 1, tail);
            memmove(targets + i, targets + i + 1, tail);
            count--;
            break;
        }
    }
    keep = count < b->assoc ? count : b->assoc - 1;
    if (keep >= b->ways)
        return 0;
    memmove(pcs + 1, pcs, (size_t)keep * sizeof(uint64_t));
    memmove(targets + 1, targets, (size_t)keep * sizeof(uint64_t));
    pcs[0] = pc;
    targets[0] = target;
    b->count[set] = keep + 1;
    return 1;
}

/* -- memory-side state shared by the load paths --------------------------- */

typedef struct {
    const lane_trace *t;
    cache dcache, l2;
    int64_t dcache_hit, l2_hit, memory_latency;
    int64_t dcache_accesses, dcache_misses;
    /* Load/store queue: a ring of sequence numbers in program order. */
    int32_t *lsq;
    int64_t lsq_head, lsq_count, lsq_capacity;
    uint8_t *lsq_issued, *lsq_completed, *lsq_present;
    /* Store sets: SSIT (pc index -> set id + 1, 0 = none) and LFST (set id
     * -> sequence + 1, 0 = none). */
    int64_t store_set_entries;
    int32_t *ssit, *lfst;
    int64_t next_set_id, set_capacity;
    int64_t ordering_violations, ordering_penalty;
    int64_t fetch_stalled_until;
} memory_side;

static int64_t ssit_index(const memory_side *m, int64_t seq)
{
    return (int64_t)((m->t->pc[m->t->index[seq]] >> 2)
                     % (uint64_t)m->store_set_entries);
}

/* L1D then the unified L2 (inclusive); the load-to-use latency, or -1 when
 * a cache invariant breaks. */
static int64_t data_latency(memory_side *m, uint64_t address)
{
    int hit;
    m->dcache_accesses++;
    hit = cache_access(&m->dcache, address / m->dcache.line);
    if (hit)
        return hit < 0 ? -1 : m->dcache_hit;
    m->dcache_misses++;
    hit = cache_access(&m->l2, address / m->l2.line);
    if (hit < 0)
        return -1;
    return hit ? m->dcache_hit + m->l2_hit
               : m->dcache_hit + m->l2_hit + m->memory_latency;
}

/* A load issuing before an older store to the same address that has not
 * executed yet: count it, train the store sets and charge the redirect.
 * Returns 0 when the set-id table overflows. */
static int check_ordering(memory_side *m, int64_t seq, uint64_t address,
                          int64_t cycle)
{
    const lane_trace *t = m->t;
    int64_t i, other, load_index, store_index, load_set, store_set, winner;
    for (i = 0; i < m->lsq_count; i++) {
        other = m->lsq[(m->lsq_head + i) % m->lsq_capacity];
        if (other >= seq)
            break;
        if (!(t->flags[other] & TF_STORE) || m->lsq_completed[other])
            continue;
        if ((t->flags[other] & TF_HAS_EA) && m->lsq_issued[other])
            continue;
        if (!(t->flags[other] & TF_HAS_EA) || t->ea[other] != address)
            continue;
        m->ordering_violations++;
        load_index = ssit_index(m, seq);
        store_index = ssit_index(m, other);
        load_set = m->ssit[load_index] - 1;
        store_set = m->ssit[store_index] - 1;
        if (load_set < 0 && store_set < 0) {
            if (m->next_set_id >= m->set_capacity)
                return 0;
            m->ssit[load_index] = (int32_t)(m->next_set_id + 1);
            m->ssit[store_index] = (int32_t)(m->next_set_id + 1);
            m->next_set_id++;
        } else if (load_set < 0) {
            m->ssit[load_index] = (int32_t)(store_set + 1);
        } else if (store_set < 0) {
            m->ssit[store_index] = (int32_t)(load_set + 1);
        } else {
            winner = load_set < store_set ? load_set : store_set;
            m->ssit[load_index] = (int32_t)(winner + 1);
            m->ssit[store_index] = (int32_t)(winner + 1);
        }
        m->fetch_stalled_until = max64(m->fetch_stalled_until,
                                       cycle + m->ordering_penalty);
        break;
    }
    return 1;
}

/* -- free list ------------------------------------------------------------ */

/* The free physical registers: the never-allocated range first (numbered
 * from `fresh_base` up), then registers freed at retirement, in FIFO order. */
typedef struct {
    int32_t *ring;
    int64_t head, count, capacity;
    int64_t fresh_base, fresh_next, fresh_total;
} free_list;

static int64_t free_len(const free_list *f)
{
    return f->fresh_total - f->fresh_next + f->count;
}

static int64_t free_pop(free_list *f)
{
    int64_t reg;
    if (f->fresh_next < f->fresh_total)
        return f->fresh_base + f->fresh_next++;
    reg = f->ring[f->head];
    f->head = (f->head + 1) % f->capacity;
    f->count--;
    return reg;
}

static int free_push(free_list *f, int64_t reg)
{
    if (f->count == f->capacity)
        return 0;
    f->ring[(f->head + f->count) % f->capacity] = (int32_t)reg;
    f->count++;
    return 1;
}

/* -- the kernel ----------------------------------------------------------- */

/* Stop the lane with a result code and the entry involved. */
#define FAIL(code, entry) \
    do { status = (code); bad = (entry); goto stop; } while (0)
/* Offer one event cycle to the idle-span jump's target. */
#define CANDIDATE(value) \
    do { \
        int64_t value_ = (value); \
        if (!have_target || value_ < target) { \
            target = value_; \
            have_target = 1; \
        } \
    } while (0)

/*
 * Simulate one lane: `t` over the machine `config` (a CF_* vector).
 *
 * The geometry must come from a validated MachineConfig: positive widths,
 * capacities and ports, a power-of-two predictor, whole BTB and cache sets,
 * physical above architected registers, every value below 2**31.  The trace
 * tables are checked here.  `max_cycles` is the watchdog bound (at most
 * 2**62).
 *
 * Returns LANE_OK with the PipelineStats counters in out[0..OUT_COUNT), or an
 * error code with out[0] = the entry involved (-1 if none), out[1] = entries
 * retired and out[2] = the cycle.
 */
int repro_lane_run(const lane_trace *t, const int64_t *config,
                   int64_t max_cycles, int64_t *out)
{
    const int64_t total = t->total;
    const int64_t fetch_width = config[CF_FETCH_WIDTH];
    const int64_t rename_width = config[CF_RENAME_WIDTH];
    const int64_t issue_width = config[CF_ISSUE_WIDTH];
    const int64_t retire_width = config[CF_RETIRE_WIDTH];
    const int64_t front_end_depth = config[CF_FRONT_END_DEPTH];
    const int64_t fetch_buffer_limit = fetch_width * front_end_depth;
    const int64_t register_read_latency = config[CF_REGISTER_READ_LATENCY];
    const int64_t scheduler_latency = config[CF_SCHEDULER_LATENCY];
    const int64_t rob_size = config[CF_ROB_SIZE];
    const int64_t iq_size = config[CF_ISSUE_QUEUE_SIZE];
    const int64_t lsq_size = config[CF_LSQ_SIZE];
    const int64_t physical_registers = config[CF_PHYSICAL_REGISTERS];
    const int64_t arch_registers = config[CF_ARCHITECTED_REGISTERS];
    const int64_t plain_alu_units = config[CF_PLAIN_ALU_UNITS];
    const int64_t alu_pipelines = config[CF_ALU_PIPELINES];
    const int64_t fp_units = config[CF_FP_UNITS];
    const int64_t load_ports = config[CF_LOAD_PORTS];
    const int64_t store_ports = config[CF_STORE_PORTS];
    const int64_t max_memory_handles = config[CF_MAX_MEMORY_HANDLES];
    const int64_t sliding_window = config[CF_SLIDING_WINDOW];
    const int64_t replay_penalty = config[CF_REPLAY_PENALTY];
    const int64_t redirect_penalty = config[CF_REDIRECT_PENALTY];
    const int64_t icache_hit = config[CF_ICACHE_HIT];
    const int64_t pipeline_future_cap = alu_pipelines > 1 ? alu_pipelines : 1;
    const int64_t alu_future_cap = max64(plain_alu_units + alu_pipelines, 1);
    const uint64_t pred_mask = (uint64_t)config[CF_PREDICTOR_ENTRIES] - 1;
    const uint64_t history_mask = (1u << 12) - 1;
    const int64_t watchdog_limit = max_cycles + 1;

    arena a;
    memory_side m;
    cache icache;
    btb branch_targets;
    free_list fl;
    events completions, wakeups, ready, busy;
    int64_t status = LANE_OK, bad = -1, i, op;
    int64_t max_reg = 0, max_fubmp = 0, regs, mapped, phys_slots;
    int64_t res_mask;

    /* per-sequence state (sequence number == trace index) */
    int64_t *complete_cycle, *fetch_cycle, *wake_at, *deferred;
    int32_t *dest_phys, *prev_phys, *waiter_next;
    uint8_t *pending, *pred_taken;
    /* per-register state */
    int32_t *rename_map, *waiter_head;
    int64_t *ready_cycle;
    /* predictor counters and the sliding-window reservations */
    uint8_t *bimodal, *gshare, *chooser;
    int64_t *res_cycle;
    int32_t *res_count;

    /* pipeline positions: front end = [renamed, fetch_index), ROB =
     * [retired, renamed) */
    int64_t cycle = 0, retired = 0, renamed = 0, fetch_index = 0;
    int64_t fetch_blocked_on = -1, iq_count = 0;
    uint64_t history = 0;

    /* statistics */
    int64_t fetched_slots = 0, fetch_stall_cycles = 0, rename_stall_cycles = 0;
    int64_t issue_slots_used = 0, branch_lookups = 0, mispredictions = 0;
    int64_t icache_misses = 0, loads_executed = 0, stores_executed = 0;
    int64_t minigraph_replays = 0, sliding_window_conflicts = 0;
    int64_t stall_rob_full = 0, stall_iq_full = 0, stall_lsq_full = 0;
    int64_t stall_no_physical_register = 0;
    int64_t committed_instructions = 0, committed_slots = 0;
    int64_t committed_handles = 0;
    uint64_t rob_occupancy_sum = 0, iq_occupancy_sum = 0;
    uint64_t registers_in_use_sum = 0;

    memset(&a, 0, sizeof a);
    memset(&m, 0, sizeof m);
    m.t = t;

    /* -- check the trace tables ------------------------------------------- */
    if (total < 0 || total > (INT32_MAX - 1) / 2 || t->ops < 0
            || t->fubmp_len < 0)
        FAIL(LANE_INTERNAL, -1);
    for (i = 0; i < total; i++)
        if ((int64_t)t->index[i] >= t->ops)
            FAIL(LANE_INTERNAL, i);
    for (op = 0; op < t->ops; op++) {
        if (t->src0[op] < -1 || t->src1[op] < -1 || t->dest[op] < -1
                || ((t->bits[op] & OP_NEEDS_DEST) && t->dest[op] < 0)
                || t->fu0[op] < 0 || t->fu0[op] >= FU_KINDS
                || t->fubmp_start[op] < 0 || t->fubmp_count[op] < 0
                || (int64_t)t->fubmp_start[op] + t->fubmp_count[op]
                   > t->fubmp_len)
            FAIL(LANE_INTERNAL, -1);
        max_reg = max64(max_reg, max64(t->dest[op],
                                       max64(t->src0[op], t->src1[op])));
        max_fubmp = max64(max_fubmp, t->fubmp_count[op]);
    }
    for (i = 0; i < t->fubmp_len; i++)
        if (t->fubmp[i] < FU_NONE || t->fubmp[i] >= FU_KINDS)
            FAIL(LANE_INTERNAL, -1);

    /* -- allocate: every size follows from the trace and the geometry ----- */
    complete_cycle = take(&a, total, sizeof(int64_t));
    fetch_cycle = take(&a, total, sizeof(int64_t));
    wake_at = take(&a, total, sizeof(int64_t));
    deferred = take(&a, total, sizeof(int64_t));
    dest_phys = take(&a, total, sizeof(int32_t));
    prev_phys = take(&a, total, sizeof(int32_t));
    waiter_next = take(&a, 2 * total, sizeof(int32_t));
    pending = take(&a, total, 1);
    pred_taken = take(&a, total, 1);
    m.lsq_present = take(&a, total, 1);
    m.lsq_issued = take(&a, total, 1);
    m.lsq_completed = take(&a, total, 1);
    for (i = 0; i < 4; i++) {
        events *queue = i == 0 ? &ready : i == 1 ? &busy
                        : i == 2 ? &completions : &wakeups;
        queue->items = take(&a, total, sizeof(event));
        queue->count = queue->added = 0;
        queue->capacity = total;
    }

    /* Architectural registers past the trace's highest one are never read,
     * and the trace renames at most `total` fresh physical registers. */
    regs = max_reg + 1;
    mapped = min64(arch_registers, regs);
    fl.fresh_base = mapped;
    fl.fresh_next = 0;
    fl.fresh_total = physical_registers - arch_registers;
    fl.head = fl.count = 0;
    fl.capacity = min64(physical_registers, total) + 1;
    fl.ring = take(&a, fl.capacity, sizeof(int32_t));
    phys_slots = mapped + min64(fl.fresh_total, total);
    rename_map = take(&a, regs, sizeof(int32_t));
    ready_cycle = take(&a, phys_slots, sizeof(int64_t));
    waiter_head = take(&a, phys_slots, sizeof(int32_t));

    m.lsq_capacity = min64(lsq_size, total) + 1;
    m.lsq = take(&a, m.lsq_capacity, sizeof(int32_t));
    m.store_set_entries = config[CF_STORE_SET_ENTRIES];
    m.ssit = take(&a, m.store_set_entries, sizeof(int32_t));
    m.set_capacity = total + 1;
    m.lfst = take(&a, m.set_capacity, sizeof(int32_t));
    m.ordering_penalty = config[CF_ORDERING_PENALTY];
    m.dcache_hit = config[CF_DCACHE_HIT];
    m.l2_hit = config[CF_L2_HIT];
    m.memory_latency = config[CF_MEMORY_LATENCY];

    bimodal = take(&a, config[CF_PREDICTOR_ENTRIES], 1);
    gshare = take(&a, config[CF_PREDICTOR_ENTRIES], 1);
    chooser = take(&a, config[CF_PREDICTOR_ENTRIES], 1);
    btb_init(&a, &branch_targets, config[CF_BTB_ENTRIES],
             config[CF_BTB_ASSOCIATIVITY], total + 1);
    cache_init(&a, &icache, config[CF_ICACHE_SIZE],
               config[CF_ICACHE_ASSOCIATIVITY], config[CF_ICACHE_LINE],
               total + 1);
    cache_init(&a, &m.dcache, config[CF_DCACHE_SIZE],
               config[CF_DCACHE_ASSOCIATIVITY], config[CF_DCACHE_LINE],
               total + 1);
    cache_init(&a, &m.l2, config[CF_L2_SIZE], config[CF_L2_ASSOCIATIVITY],
               config[CF_L2_LINE], 2 * total + 1);

    /* Reservations reach at most the longest FUBMP ahead of this cycle. */
    res_mask = pow2_above(max_fubmp) - 1;
    res_cycle = take(&a, res_mask + 1, sizeof(int64_t));
    res_count = take(&a, (res_mask + 1) * FU_KINDS, sizeof(int32_t));
    if (a.failed)
        FAIL(LANE_NO_MEMORY, -1);

    for (i = 0; i < total; i++) {
        complete_cycle[i] = NEVER;
        dest_phys[i] = prev_phys[i] = -1;
    }
    for (i = 0; i < regs; i++)
        rename_map[i] = i < mapped ? (int32_t)i : -1;
    for (i = 0; i < phys_slots; i++)
        waiter_head[i] = -1;
    for (i = 0; i <= res_mask; i++)
        res_cycle[i] = -1;
    memset(bimodal, 2, (size_t)config[CF_PREDICTOR_ENTRIES]);
    memset(gshare, 2, (size_t)config[CF_PREDICTOR_ENTRIES]);
    memset(chooser, 2, (size_t)config[CF_PREDICTOR_ENTRIES]);

    while (retired < total) {
        int64_t seq, flags, latency, output_latency, finish, dest, broadcast;
        int64_t issued, deferred_count, k;

        if (cycle > max_cycles)
            FAIL(LANE_WATCHDOG, -1);

        /* ---- idle-span jump: if no stage can do work this cycle, charge
         * the per-cycle accounting for the whole quiet span and jump to the
         * next scheduled event.  Eligibility replicates each stage's own
         * guards. */
        if (!ready.count && !events_due(&wakeups, cycle)
                && !events_due(&completions, cycle)) {
            int64_t head_complete = renamed > retired
                ? complete_cycle[retired] : NEVER;
            if (head_complete == NEVER || head_complete > cycle) {
                int fetch_called = 0, fetch_stalls = 0, fetch_progress = 0;
                int blocked = fetch_blocked_on >= 0;
                int stalled = cycle < m.fetch_stalled_until;
                if (fetch_index < total || blocked || stalled) {
                    fetch_called = 1;
                    if (blocked || stalled)
                        fetch_stalls = 1;
                    else if (fetch_index - renamed >= fetch_buffer_limit)
                        fetch_stalls = 1;
                    else
                        fetch_progress = 1;
                }
                if (!fetch_progress) {
                    int rename_counter = 0, rename_progress = 0;
                    if (fetch_index > renamed) {
                        int64_t head = renamed;
                        events_expire(&busy, cycle);
                        if (fetch_cycle[head] > cycle - front_end_depth)
                            rename_counter = 1;   /* not yet rename-eligible */
                        else if (renamed - retired >= rob_size)
                            rename_counter = 2;
                        else if (iq_count + busy.count >= iq_size)
                            rename_counter = 3;
                        else if ((t->flags[head] & TF_MEMORY)
                                 && m.lsq_count >= lsq_size)
                            rename_counter = 4;
                        else if ((t->bits[t->index[head]] & OP_NEEDS_DEST)
                                 && free_len(&fl) == 0)
                            rename_counter = 5;
                        else
                            rename_progress = 1;
                    }
                    if (!rename_progress) {
                        int64_t target = 0, span;
                        int have_target = 0;
                        if (renamed > retired && head_complete != NEVER)
                            CANDIDATE(head_complete);
                        if (wakeups.count)
                            CANDIDATE(wakeups.items[0].when);
                        if (completions.count)
                            CANDIDATE(completions.items[0].when);
                        if (busy.count)
                            CANDIDATE(busy.items[0].when);
                        if (m.fetch_stalled_until > cycle)
                            CANDIDATE(m.fetch_stalled_until);
                        if (fetch_index > renamed
                                && fetch_cycle[renamed] + front_end_depth > cycle)
                            CANDIDATE(fetch_cycle[renamed] + front_end_depth);
                        if (!have_target)
                            target = watchdog_limit;
                        if (target <= cycle)
                            target = cycle + 1;
                        else if (target > watchdog_limit)
                            target = watchdog_limit;
                        span = target - cycle;
                        rob_occupancy_sum += (uint64_t)(renamed - retired)
                                             * (uint64_t)span;
                        events_expire(&busy, cycle);
                        iq_occupancy_sum += (uint64_t)(iq_count + busy.count)
                                            * (uint64_t)span;
                        registers_in_use_sum +=
                            (uint64_t)(physical_registers - free_len(&fl))
                            * (uint64_t)span;
                        if (fetch_called && fetch_stalls)
                            fetch_stall_cycles += span;
                        if (fetch_index > renamed) {
                            if (rename_counter == 2)
                                stall_rob_full += span;
                            else if (rename_counter == 3)
                                stall_iq_full += span;
                            else if (rename_counter == 4)
                                stall_lsq_full += span;
                            else if (rename_counter == 5)
                                stall_no_physical_register += span;
                            rename_stall_cycles += span;
                        }
                        cycle = target;
                        continue;
                    }
                }
            }
        }

        /* ---- retire ----------------------------------------------------- */
        if (renamed > retired && complete_cycle[retired] != NEVER
                && complete_cycle[retired] <= cycle) {
            int64_t retired_now = 0;
            while (renamed > retired && retired_now < retire_width) {
                seq = retired;
                if (complete_cycle[seq] == NEVER || complete_cycle[seq] > cycle)
                    break;
                if (prev_phys[seq] >= 0 && !free_push(&fl, prev_phys[seq]))
                    FAIL(LANE_INTERNAL, seq);
                if ((t->flags[seq] & TF_MEMORY) && m.lsq_count
                        && m.lsq[m.lsq_head] == seq) {
                    m.lsq_head = (m.lsq_head + 1) % m.lsq_capacity;
                    m.lsq_count--;
                    m.lsq_present[seq] = 0;
                }
                committed_instructions += t->size[t->index[seq]];
                committed_slots++;
                if (t->bits[t->index[seq]] & OP_IS_HANDLE)
                    committed_handles++;
                retired++;
                retired_now++;
            }
        }

        /* ---- complete --------------------------------------------------- */
        while (events_due(&completions, cycle)) {
            uint64_t pc, shifted;
            int taken;
            seq = events_pop(&completions);
            flags = t->flags[seq];
            if (flags & TF_CONTROL) {
                /* Control resolution: train the hybrid direction predictor
                 * and the BTB with the resolved outcome. */
                taken = (flags & TF_TAKEN) != 0;
                pc = t->pc[t->index[seq]];
                shifted = pc >> 2;
                if (t->bits[t->index[seq]] & OP_IS_COND) {
                    uint64_t base = shifted & pred_mask;
                    uint64_t hashed = (shifted ^ history) & pred_mask;
                    int bimodal_counter = bimodal[base];
                    int gshare_counter = gshare[hashed];
                    int bimodal_correct = (bimodal_counter >= 2) == taken;
                    if (bimodal_correct != ((gshare_counter >= 2) == taken)) {
                        int counter = chooser[base];
                        if (bimodal_correct) {
                            if (counter > 0)
                                chooser[base] = (uint8_t)(counter - 1);
                        } else if (counter < 3) {
                            chooser[base] = (uint8_t)(counter + 1);
                        }
                    }
                    if (taken) {
                        if (bimodal_counter < 3)
                            bimodal[base] = (uint8_t)(bimodal_counter + 1);
                        if (gshare_counter < 3)
                            gshare[hashed] = (uint8_t)(gshare_counter + 1);
                        history = ((history << 1) | 1) & history_mask;
                    } else {
                        if (bimodal_counter > 0)
                            bimodal[base] = (uint8_t)(bimodal_counter - 1);
                        if (gshare_counter > 0)
                            gshare[hashed] = (uint8_t)(gshare_counter - 1);
                        history = (history << 1) & history_mask;
                    }
                    if (pred_taken[seq] != taken)
                        mispredictions++;
                }
                if (taken && !btb_install(&branch_targets, pc, shifted,
                                          t->next_pc[seq]))
                    FAIL(LANE_INTERNAL, seq);
                if (fetch_blocked_on == seq) {
                    fetch_blocked_on = -1;
                    m.fetch_stalled_until = max64(m.fetch_stalled_until,
                                                  cycle + redirect_penalty);
                }
            }
            if (flags & TF_MEMORY) {
                m.lsq_completed[seq] = 1;
                if (flags & TF_STORE) {
                    int64_t set_id = m.ssit[ssit_index(&m, seq)] - 1;
                    if (set_id >= 0 && m.lfst[set_id] == seq + 1)
                        m.lfst[set_id] = 0;
                }
            }
        }

        /* ---- issue ------------------------------------------------------ */
        if (events_due(&wakeups, cycle) || ready.count) {
            /* Functional-unit begin_cycle: reset per-cycle port usage and
             * read this cycle's reserved counts. */
            int64_t plain_used = 0, pipeline_used = 0, fp_used = 0;
            int64_t load_used = 0, store_used = 0, memory_handles_issued = 0;
            int64_t now_alu = 0, now_pipeline = 0, now_load = 0, now_store = 0;
            int64_t slot = cycle & res_mask;
            if (res_cycle[slot] == cycle) {
                const int32_t *now = res_count + slot * FU_KINDS;
                now_alu = now[FU_ALU];
                now_pipeline = now[FU_AP];
                now_load = now[FU_LD];
                now_store = now[FU_ST];
            }
            while (events_due(&wakeups, cycle)) {
                seq = events_pop(&wakeups);
                if (!events_push(&ready, seq, (int32_t)seq))
                    FAIL(LANE_INTERNAL, seq);
            }
            issued = 0;
            deferred_count = 0;
            while (ready.count && issued < issue_width) {
                int64_t kind;
                seq = events_pop(&ready);
                op = t->index[seq];
                flags = t->flags[seq];
                if ((flags & TF_MEMORY) && !(flags & TF_STORE)) {
                    /* Store-sets scheduling: only *older* in-flight stores
                     * can hold a load back (the LFST may name younger
                     * ones). */
                    int64_t set_id = m.ssit[ssit_index(&m, seq)] - 1;
                    int64_t predicted = set_id < 0 ? -1 : m.lfst[set_id] - 1;
                    if (predicted >= 0 && predicted < seq
                            && m.lsq_present[predicted]
                            && (t->flags[predicted] & TF_STORE)
                            && !m.lsq_completed[predicted]) {
                        deferred[deferred_count++] = seq;
                        continue;
                    }
                }
                kind = t->kind[op];
                if (kind == KIND_INT) {
                    if (plain_alu_units - plain_used - now_alu > 0) {
                        plain_used++;
                    } else if (alu_pipelines - pipeline_used - now_pipeline > 0) {
                        pipeline_used++;
                    } else {
                        deferred[deferred_count++] = seq;
                        continue;
                    }
                    latency = output_latency = t->latency[op];
                } else if (kind == KIND_LOAD) {
                    if (load_used + now_load >= load_ports) {
                        deferred[deferred_count++] = seq;
                        continue;
                    }
                    load_used++;
                    latency = data_latency(&m, t->ea[seq]);
                    if (latency < 0)
                        FAIL(LANE_INTERNAL, seq);
                    loads_executed++;
                    if ((flags & TF_HAS_EA)
                            && !check_ordering(&m, seq, t->ea[seq], cycle))
                        FAIL(LANE_INTERNAL, seq);
                    m.lsq_issued[seq] = 1;
                    output_latency = latency;
                } else if (kind == KIND_STORE) {
                    if (store_used + now_store >= store_ports) {
                        deferred[deferred_count++] = seq;
                        continue;
                    }
                    store_used++;
                    stores_executed++;
                    m.lsq_issued[seq] = 1;
                    /* Stores write the cache at retirement; scheduling-wise
                     * the store computes address/data in one cycle. */
                    latency = output_latency = 1;
                } else if (kind == KIND_FP) {
                    if (fp_used >= fp_units) {
                        deferred[deferred_count++] = seq;
                        continue;
                    }
                    fp_used++;
                    latency = output_latency = t->latency[op];
                } else if (kind == KIND_HANDLE) {
                    const int64_t bits = t->bits[op];
                    const int8_t *fubmp = t->fubmp + t->fubmp_start[op];
                    const int64_t fubmp_count = t->fubmp_count[op];
                    const int64_t execution_cycles = t->execution_cycles[op];
                    int64_t extra_memory = 0;
                    if ((bits & OP_INTEGER_ONLY) && alu_pipelines > 0) {
                        if (alu_pipelines - pipeline_used - now_pipeline <= 0) {
                            deferred[deferred_count++] = seq;
                            continue;
                        }
                        pipeline_used++;
                    } else {
                        int ok;
                        if (!sliding_window && !(bits & OP_INTEGER_ONLY))
                            FAIL(LANE_NEEDS_SLIDING_WINDOW, seq);
                        /* can_issue_memory_handle, inlined: first-cycle port
                         * availability plus the sliding-window
                         * reservation. */
                        ok = memory_handles_issued < max_memory_handles;
                        if (ok) {
                            switch (t->fu0[op]) {
                            case FU_LD:
                                ok = load_used + now_load < load_ports;
                                break;
                            case FU_ST:
                                ok = store_used + now_store < store_ports;
                                break;
                            case FU_AP:
                                ok = alu_pipelines - pipeline_used
                                     - now_pipeline > 0;
                                break;
                            default:
                                ok = plain_alu_units - plain_used - now_alu > 0
                                     || alu_pipelines - pipeline_used
                                        - now_pipeline > 0;
                            }
                        }
                        for (k = 0; ok && k < fubmp_count; k++) {
                            int64_t unit = fubmp[k], when = cycle + k + 1;
                            int64_t reserved, capacity;
                            if (unit == FU_NONE)
                                continue;
                            reserved = res_cycle[when & res_mask] == when
                                ? res_count[(when & res_mask) * FU_KINDS + unit]
                                : 0;
                            capacity = unit == FU_LD ? load_ports
                                : unit == FU_ST ? store_ports
                                : unit == FU_AP ? pipeline_future_cap
                                : alu_future_cap;
                            if (reserved >= capacity)
                                ok = 0;
                        }
                        if (!ok) {
                            /* A reservation conflict consumes the issue slot
                             * without issuing anything (Section 4.3). */
                            issued++;
                            sliding_window_conflicts++;
                            deferred[deferred_count++] = seq;
                            continue;
                        }
                        /* issue_memory_handle: consume the first-cycle unit
                         * and reserve the future ones. */
                        switch (t->fu0[op]) {
                        case FU_LD:
                            load_used++;
                            break;
                        case FU_ST:
                            store_used++;
                            break;
                        case FU_AP:
                            pipeline_used++;
                            break;
                        default:
                            if (plain_alu_units - plain_used - now_alu > 0)
                                plain_used++;
                            else
                                pipeline_used++;
                        }
                        for (k = 0; k < fubmp_count; k++) {
                            int64_t unit = fubmp[k], when = cycle + k + 1;
                            int64_t at = when & res_mask;
                            if (unit == FU_NONE)
                                continue;
                            if (res_cycle[at] != when) {
                                res_cycle[at] = when;
                                memset(res_count + at * FU_KINDS, 0,
                                       FU_KINDS * sizeof(int32_t));
                            }
                            res_count[at * FU_KINDS + unit]++;
                        }
                        memory_handles_issued++;
                    }

                    output_latency = t->header_lat[op];
                    if (bits & OP_HAS_LOAD) {
                        int64_t memory = data_latency(&m, t->ea[seq]);
                        if (memory < 0)
                            FAIL(LANE_INTERNAL, seq);
                        loads_executed++;
                        if ((flags & TF_HAS_EA)
                                && !check_ordering(&m, seq, t->ea[seq], cycle))
                            FAIL(LANE_INTERNAL, seq);
                        m.lsq_issued[seq] = 1;
                        extra_memory = max64(memory - m.dcache_hit, 0);
                        if (extra_memory > 0 && (bits & OP_HAS_INTERIOR_LOAD)) {
                            /* An interior load missed: the whole mini-graph
                             * replays once the miss returns (Section 4.3). */
                            minigraph_replays++;
                            extra_memory += replay_penalty + execution_cycles;
                            output_latency = execution_cycles + extra_memory;
                        } else if (extra_memory > 0 && (bits & OP_OUT_IS_LAST)) {
                            output_latency += extra_memory;
                        }
                    } else if (bits & OP_HAS_STORE) {
                        stores_executed++;
                        m.lsq_issued[seq] = 1;
                    }
                    latency = execution_cycles + extra_memory;
                    /* The MGST sequencer frees the scheduler entry only when
                     * the terminal instruction issues. */
                    if (!events_push(&busy, cycle + execution_cycles,
                                     (int32_t)seq))
                        FAIL(LANE_INTERNAL, seq);
                } else {
                    FAIL(LANE_UNISSUABLE, seq);
                }

                /* -- finish_issue, inlined -------------------------------- */
                iq_count--;
                finish = cycle + register_read_latency + latency;
                complete_cycle[seq] = finish;
                if (finish <= cycle
                        || !events_push(&completions, finish, (int32_t)seq))
                    FAIL(LANE_INTERNAL, seq);
                dest = dest_phys[seq];
                if (dest >= 0) {
                    int64_t node = waiter_head[dest];
                    broadcast = cycle + max64(output_latency, scheduler_latency);
                    ready_cycle[dest] = broadcast;
                    waiter_head[dest] = -1;
                    while (node >= 0) {
                        int64_t consumer = node >> 1;
                        node = waiter_next[node];
                        pending[consumer]--;
                        if (wake_at[consumer] < broadcast)
                            wake_at[consumer] = broadcast;
                        if (pending[consumer] == 0
                                && (wake_at[consumer] <= cycle
                                    || !events_push(&wakeups, wake_at[consumer],
                                                    (int32_t)consumer)))
                            FAIL(LANE_INTERNAL, consumer);
                    }
                }
                issued++;
                issue_slots_used++;
            }
            for (k = 0; k < deferred_count; k++)
                events_push(&ready, deferred[k], (int32_t)deferred[k]);
        }

        /* ---- rename ----------------------------------------------------- */
        if (fetch_index > renamed) {
            int64_t renamed_now = 0, horizon = cycle - front_end_depth;
            while (fetch_index > renamed && renamed_now < rename_width) {
                int64_t source0, source1, physical0, physical1, wake;
                int pending_now = 0, needs_destination;
                seq = renamed;
                if (fetch_cycle[seq] > horizon)
                    break;
                if (renamed - retired >= rob_size) {
                    stall_rob_full++;
                    break;
                }
                events_expire(&busy, cycle);
                if (iq_count + busy.count >= iq_size) {
                    stall_iq_full++;
                    break;
                }
                op = t->index[seq];
                flags = t->flags[seq];
                if ((flags & TF_MEMORY) && m.lsq_count >= lsq_size) {
                    stall_lsq_full++;
                    break;
                }
                needs_destination = (t->bits[op] & OP_NEEDS_DEST) != 0;
                if (needs_destination && free_len(&fl) == 0) {
                    stall_no_physical_register++;
                    break;
                }
                renamed++;   /* leaves the front end, enters the ROB */
                /* -- rename_one, inlined ---------------------------------- */
                source0 = t->src0[op];
                source1 = t->src1[op];
                physical0 = source0 >= 0 ? rename_map[source0] : -1;
                physical1 = source1 >= 0 ? rename_map[source1] : -1;
                if (needs_destination) {
                    int64_t physical = free_pop(&fl);
                    int64_t destination = t->dest[op];
                    if (physical < 0 || physical >= phys_slots)
                        FAIL(LANE_INTERNAL, seq);
                    prev_phys[seq] = rename_map[destination];
                    rename_map[destination] = (int32_t)physical;
                    dest_phys[seq] = (int32_t)physical;
                    ready_cycle[physical] = FOREVER;
                }
                wake = cycle + 1;
                if (physical0 >= 0) {
                    broadcast = ready_cycle[physical0];
                    if (broadcast >= FOREVER) {
                        pending_now = 1;
                        waiter_next[2 * seq] = waiter_head[physical0];
                        waiter_head[physical0] = (int32_t)(2 * seq);
                    } else if (broadcast > wake) {
                        wake = broadcast;
                    }
                }
                if (physical1 >= 0) {
                    broadcast = ready_cycle[physical1];
                    if (broadcast >= FOREVER) {
                        pending_now++;
                        waiter_next[2 * seq + 1] = waiter_head[physical1];
                        waiter_head[physical1] = (int32_t)(2 * seq + 1);
                    } else if (broadcast > wake) {
                        wake = broadcast;
                    }
                }
                if (pending_now) {
                    pending[seq] = (uint8_t)pending_now;
                    wake_at[seq] = wake;
                } else if (!events_push(&wakeups, wake, (int32_t)seq)) {
                    FAIL(LANE_INTERNAL, seq);
                }
                iq_count++;
                if (flags & TF_MEMORY) {
                    if (m.lsq_count == m.lsq_capacity)
                        FAIL(LANE_INTERNAL, seq);
                    m.lsq_present[seq] = 1;
                    m.lsq[(m.lsq_head + m.lsq_count) % m.lsq_capacity] =
                        (int32_t)seq;
                    m.lsq_count++;
                    if (flags & TF_STORE) {
                        int64_t set_id = m.ssit[ssit_index(&m, seq)] - 1;
                        if (set_id >= 0)
                            m.lfst[set_id] = (int32_t)(seq + 1);
                    }
                }
                renamed_now++;
            }
            if (renamed_now == 0)
                rename_stall_cycles++;
        }

        /* ---- fetch ------------------------------------------------------ */
        if (fetch_index < total || fetch_blocked_on >= 0
                || cycle < m.fetch_stalled_until) {
            if (fetch_blocked_on >= 0 || cycle < m.fetch_stalled_until) {
                fetch_stall_cycles++;
            } else if (fetch_index - renamed >= fetch_buffer_limit) {
                fetch_stall_cycles++;
            } else {
                int64_t fetched = 0;
                int have_line = 0;
                uint64_t current_line = 0;
                seq = fetch_index;
                while (fetched < fetch_width && seq < total) {
                    const uint64_t address = t->addr[t->index[seq]];
                    uint64_t line = address / icache.line;
                    if (!have_line || line != current_line) {
                        /* L1I access (tag == line), then the unified L2. */
                        int hit = cache_access(&icache, line);
                        if (hit < 0)
                            FAIL(LANE_INTERNAL, seq);
                        if (hit) {
                            latency = icache_hit;
                        } else {
                            icache_misses++;
                            hit = cache_access(&m.l2, address / m.l2.line);
                            if (hit < 0)
                                FAIL(LANE_INTERNAL, seq);
                            latency = icache_hit + m.l2_hit
                                      + (hit ? 0 : m.memory_latency);
                        }
                        if (latency > icache_hit) {
                            /* Instruction-cache miss: charge it and stop
                             * fetching this cycle. */
                            m.fetch_stalled_until = max64(m.fetch_stalled_until,
                                                          cycle + latency);
                            if (fetched == 0)
                                fetch_stall_cycles++;
                            break;
                        }
                        have_line = 1;
                        current_line = line;
                    }
                    fetch_cycle[seq] = cycle;
                    fetched++;
                    fetched_slots++;
                    flags = t->flags[seq];
                    seq++;
                    if (flags & TF_CONTROL) {
                        const int64_t here = seq - 1;
                        const uint64_t pc = t->pc[t->index[here]];
                        const uint64_t shifted = pc >> 2;
                        uint64_t target = 0;
                        int has_target, taken, actual_taken, target_correct;
                        branch_lookups++;
                        /* BTB lookup, then the hybrid direction predict. */
                        has_target = btb_lookup(&branch_targets, pc, shifted,
                                                &target);
                        if (t->bits[t->index[here]] & OP_IS_COND)
                            taken = (chooser[shifted & pred_mask] >= 2
                                     ? gshare[(shifted ^ history) & pred_mask]
                                     : bimodal[shifted & pred_mask]) >= 2;
                        else
                            taken = 1;
                        /* Without a BTB target the front end cannot
                         * redirect; falls back to not-taken. */
                        if (taken && !has_target)
                            taken = 0;
                        pred_taken[here] = (uint8_t)taken;
                        actual_taken = (flags & TF_TAKEN) != 0;
                        target_correct = !actual_taken
                            || (has_target && target == t->next_pc[here]);
                        if (taken != actual_taken || !target_correct) {
                            fetch_blocked_on = here;
                            break;
                        }
                        /* Correctly predicted taken branches still end the
                         * fetch group. */
                        if (actual_taken)
                            break;
                    }
                }
                fetch_index = seq;
            }
        }

        /* ---- per-cycle occupancy accounting ----------------------------- */
        rob_occupancy_sum += (uint64_t)(renamed - retired);
        events_expire(&busy, cycle);
        iq_occupancy_sum += (uint64_t)(iq_count + busy.count);
        registers_in_use_sum += (uint64_t)(physical_registers - free_len(&fl));
        cycle++;
    }

stop:
    release(&a);
    if (status != LANE_OK) {
        out[0] = bad;
        out[1] = retired;
        out[2] = cycle;
        return (int)status;
    }
    out[OUT_CYCLES] = cycle;
    out[OUT_COMMITTED_INSTRUCTIONS] = committed_instructions;
    out[OUT_COMMITTED_SLOTS] = committed_slots;
    out[OUT_COMMITTED_HANDLES] = committed_handles;
    out[OUT_FETCHED_SLOTS] = fetched_slots;
    out[OUT_FETCH_STALL_CYCLES] = fetch_stall_cycles;
    out[OUT_RENAME_STALL_CYCLES] = rename_stall_cycles;
    out[OUT_ISSUE_SLOTS_USED] = issue_slots_used;
    out[OUT_BRANCH_LOOKUPS] = branch_lookups;
    out[OUT_BRANCH_MISPREDICTIONS] = mispredictions;
    out[OUT_ICACHE_MISSES] = icache_misses;
    out[OUT_DCACHE_ACCESSES] = m.dcache_accesses;
    out[OUT_DCACHE_MISSES] = m.dcache_misses;
    out[OUT_LOADS_EXECUTED] = loads_executed;
    out[OUT_STORES_EXECUTED] = stores_executed;
    out[OUT_ORDERING_VIOLATIONS] = m.ordering_violations;
    out[OUT_MINIGRAPH_REPLAYS] = minigraph_replays;
    out[OUT_SLIDING_WINDOW_CONFLICTS] = sliding_window_conflicts;
    out[OUT_STALL_ROB_FULL] = stall_rob_full;
    out[OUT_STALL_IQ_FULL] = stall_iq_full;
    out[OUT_STALL_LSQ_FULL] = stall_lsq_full;
    out[OUT_STALL_NO_PHYSICAL_REGISTER] = stall_no_physical_register;
    out[OUT_ROB_OCCUPANCY_SUM] = (int64_t)rob_occupancy_sum;
    out[OUT_IQ_OCCUPANCY_SUM] = (int64_t)iq_occupancy_sum;
    out[OUT_PHYSICAL_REGISTERS_IN_USE_SUM] = (int64_t)registers_in_use_sum;
    return LANE_OK;
}
