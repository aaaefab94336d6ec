/*
 * Compiled per-row timing kernels of repro.core.
 *
 * Five routines, each the per-row (or per-event) recurrence of a Python
 * oracle:
 *
 *   leading_scan     the leading core's issue/retire recurrence over
 *                    TraceSchedule columns, with the RMT harness's queue
 *                    gating inline (oracles: LeadingCoreTiming._advance,
 *                    RmtSimulator._run_reference);
 *   checker_consume  the in-order checker's consume, with or without
 *                    register value prediction (oracle:
 *                    InOrderCheckerTiming.consume_op);
 *   memory_probe     a window's merged fetch/load/store event stream
 *                    through the L1I/L1D and NUCA L2 tag arrays (oracle:
 *                    MemoryHierarchy.fetch_latency, load_latency and
 *                    store_commit over the caches' Python access methods);
 *   branch_update    a window of branch outcomes through the combined
 *                    predictor's counter tables and BTB (oracle:
 *                    BranchPredictor.update);
 *   trace_schedule   a trace's positional gate and last-writer rows
 *                    (oracle: repro.core.leading's
 *                    _build_trace_schedule_reference).
 *
 * Python owns every buffer.  Each routine reads one int64 descriptor (column
 * addresses, geometry and scalar carries; the slot layout is the enum below,
 * mirrored in repro/core/_native.py), allocates nothing and keeps nothing
 * between calls.  Arithmetic is plain IEEE double / int64 and must be built
 * without -ffast-math or FMA contraction, so every double rounds exactly as
 * the Python oracle's floats do.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define FRONT_END_DEPTH 4
#define NUM_POOLS 4

/* leading_scan descriptor slots */
enum {
    L_CG, L_IG, L_W1, L_W2,                 /* schedule columns, per row */
    L_POOL, L_LATENCY, L_FETCH_ADD, L_MISPREDICTED, L_WINDOW_START,
    L_COMMITS, L_ISSUES, L_COMPLETES,       /* output streams, per trace row */
    L_ISSUE_RING, L_FU_RING, L_RING_SIZE, L_TAIL,
    L_NEEDED, L_BINDING, L_CONSUME, L_STALLS, /* RMT gating (0: ungated) */
    L_NEXT, L_FETCH, L_GROUP, L_REDIRECT, L_LAST_COMMIT, L_COMMITS_IN_CYCLE,
    L_ROB, L_WIDTH, L_COMMIT_WIDTH, L_FETCH_WIDTH, L_PENALTY,
    L_CAP0, L_CAP1, L_CAP2, L_CAP3,
    L_SLOTS
};

/* leading_scan results below zero (otherwise: the next row to schedule) */
#define RING_FULL (-1)
#define BELOW_TAIL (-2)

/* checker_consume descriptor slots */
enum {
    C_POOL, C_SRC1, C_SRC2, C_DST, C_LATENCY,
    C_ARRIVAL_F64, C_ARRIVAL_I64,           /* exactly one is non-zero */
    C_OUT, C_REG_READY, C_NUM_REGS,
    C_CARRY, C_USE,                         /* double[3], int64[5] */
    C_WIDTH, C_RVP,
    C_CAP0, C_CAP1, C_CAP2, C_CAP3,
    C_SLOTS
};

/* memory_probe descriptor: one block of cache slots per cache (at M_L1I,
 * M_L1D, M_L2), then the L2's placement and latency slots */
enum {
    K_TAGS, K_FILL, K_OWNED, K_RUNS, K_NUM_RUNS, K_SETS, K_WAYS, K_SHIFT,
    K_SLOTS
};
enum {
    M_L1I = 0, M_L1D = K_SLOTS, M_L2 = 2 * K_SLOTS,
    M_L2_SLOTS = 3 * K_SLOTS, M_DISTRIBUTED_WAYS, M_SLOT_BANKS,
    M_BANK_CYCLES, M_NUM_BANKS, M_MEMORY_CYCLES,
    M_I_HIT, M_D_HIT, M_I_SPACE, M_COUNTS,
    M_SLOTS
};
/* memory_probe counts, per call; one bank-access count per bank follows */
enum {
    N_L1I_HITS, N_L1I_MISSES, N_L1D_HITS, N_L1D_MISSES,
    N_L2_HITS, N_L2_MISSES,
    N_LATENCY_TOTAL, N_LATENCY_MIN, N_LATENCY_MAX,
    N_BANKS
};
enum { EVENT_FETCH, EVENT_LOAD, EVENT_STORE };
/* the L2 tag lookup of distributed ways precedes the data bank access */
#define TAG_CYCLES 2

/* branch_update descriptor slots */
enum {
    B_BIMODAL, B_PHT, B_CHOOSER,            /* int8 2-bit counters */
    B_BTB_TAGS, B_BTB_TARGETS, B_BTB_FILL,  /* uint32 [sets, ways], int8 */
    B_BIMODAL_ENTRIES, B_PHT_ENTRIES, B_HISTORY_MASK,
    B_BTB_SETS, B_BTB_WAYS,
    B_HISTORY,                              /* global history, carried */
    B_SLOTS
};
/* 2-bit counters: 0, 1 predict not taken; 2, 3 taken */
#define TAKEN_THRESHOLD 2

/* trace_schedule descriptor slots */
enum {
    T_OP, T_DST, T_SRC1, T_SRC2,            /* int8, int16 trace columns */
    T_CG, T_IG, T_W1, T_W2,                 /* int64 schedule columns */
    T_OP_CLASS,                             /* int8 per op code: MEMORY|FP */
    T_WRITERS,                              /* int64 per register */
    T_MEM_RING, T_INT_RING, T_FP_RING,      /* int64, min(size, rows) each */
    T_ROB, T_LSQ, T_INT_IQ, T_FP_IQ,
    T_SLOTS
};
enum { CLASS_MEMORY = 1, CLASS_FP = 2 };

#define PTR(type, slot) ((type *)(intptr_t)d[slot])

int64_t leading_slots(void) { return L_SLOTS; }
int64_t checker_slots(void) { return C_SLOTS; }
int64_t memory_slots(void) { return M_SLOTS; }
int64_t memory_counts(void) { return N_BANKS; }
int64_t branch_slots(void) { return B_SLOTS; }
int64_t schedule_slots(void) { return T_SLOTS; }

/*
 * Schedule rows [d[L_NEXT], hi).  With gating bound, stop at the first row
 * whose gating entry has no consume time yet (needed >= consumed).  Usage
 * maps are rings of per-cycle counts covering cycles [tail, tail + size):
 * dispatch of row i waits for the commit of row i - rob, and commits never
 * decrease, so no probe from row i on lands below commits[i - rob] + 2 and
 * every cycle under it is evicted.  Returns the next row to schedule, or
 * RING_FULL (a probe beyond the ring: grow it and call again) or BELOW_TAIL
 * (a probe under the eviction bound, which the bound rules out).
 */
int64_t leading_scan(int64_t *d, int64_t hi, int64_t consumed)
{
    const int64_t *cg = PTR(const int64_t, L_CG);
    const int64_t *ig = PTR(const int64_t, L_IG);
    const int64_t *w1 = PTR(const int64_t, L_W1);
    const int64_t *w2 = PTR(const int64_t, L_W2);
    const int64_t *pool = PTR(const int64_t, L_POOL);
    const int64_t *latency = PTR(const int64_t, L_LATENCY);
    const int64_t *fetch_add = PTR(const int64_t, L_FETCH_ADD);
    const int8_t *mispredicted = PTR(const int8_t, L_MISPREDICTED);
    const int64_t ws = d[L_WINDOW_START];
    int64_t *commits = PTR(int64_t, L_COMMITS);
    int64_t *issues = PTR(int64_t, L_ISSUES);
    int64_t *completes = PTR(int64_t, L_COMPLETES);
    int64_t *issue_ring = PTR(int64_t, L_ISSUE_RING);
    int64_t *fu_ring = PTR(int64_t, L_FU_RING);
    const int64_t size = d[L_RING_SIZE], mask = size - 1;
    int64_t tail = d[L_TAIL];
    const int64_t *needed = PTR(const int64_t, L_NEEDED);
    const int8_t *binding = PTR(const int8_t, L_BINDING);
    const double *consume = PTR(const double, L_CONSUME);
    int64_t *stalls = PTR(int64_t, L_STALLS);
    int64_t fetch = d[L_FETCH], group = d[L_GROUP], redirect = d[L_REDIRECT];
    int64_t last_commit = d[L_LAST_COMMIT], in_cycle = d[L_COMMITS_IN_CYCLE];
    const int64_t rob = d[L_ROB], width = d[L_WIDTH];
    const int64_t commit_width = d[L_COMMIT_WIDTH];
    const int64_t fetch_width = d[L_FETCH_WIDTH], penalty = d[L_PENALTY];
    const int64_t caps[NUM_POOLS] = {d[L_CAP0], d[L_CAP1], d[L_CAP2],
                                     d[L_CAP3]};
    int64_t i = d[L_NEXT], result;

    for (;; i++) {
        if (i >= hi) {
            result = i;
            break;
        }
        /* RMT commit gate: the consume time of the row's gating entry */
        int64_t gate = 0, entry = -1;
        if (needed) {
            entry = needed[i];
            if (entry >= 0) {
                if (entry >= consumed) {
                    result = i;
                    break;
                }
                gate = (int64_t)ceil(consume[entry]);
            }
        }
        const int64_t w = i - ws;
        /* fetch (kept in locals until the row commits to the ring) */
        int64_t f = fetch, g = group, t;
        if (f < redirect) {
            f = redirect;
            g = 0;
        }
        if (fetch_add[w]) {
            f += fetch_add[w];
            g = 0;
        }
        if (g >= fetch_width) {
            f += 1;
            g = 0;
        }
        g += 1;
        /* dispatch: ROB/LSQ commit gate, issue-queue gate */
        int64_t ready = f + FRONT_END_DEPTH;
        if (cg[i] >= 0 && (t = commits[cg[i]] + 1) > ready)
            ready = t;
        if (ig[i] >= 0 && (t = issues[ig[i]] + 1) > ready)
            ready = t;
        /* operand readiness */
        ready += 1;
        if (w1[i] >= 0 && (t = completes[w1[i]]) > ready)
            ready = t;
        if (w2[i] >= 0 && (t = completes[w2[i]]) > ready)
            ready = t;
        /* exact eviction */
        if (i >= rob && (t = commits[i - rob] + 2) > tail) {
            const int64_t stop = t - tail >= size ? tail + size : t;
            for (int64_t c = tail; c < stop; c++) {
                issue_ring[c & mask] = 0;
                memset(&fu_ring[(c & mask) * NUM_POOLS], 0,
                       NUM_POOLS * sizeof(int64_t));
            }
            tail = t;
        }
        if (ready < tail) {
            result = BELOW_TAIL;
            break;
        }
        /* issue: first cycle with a free slot and a free unit */
        const int64_t p = pool[w], cap = caps[p];
        int64_t c = ready, s = 0;
        for (; c - tail < size; c++) {
            s = c & mask;
            if (issue_ring[s] < width && fu_ring[s * NUM_POOLS + p] < cap)
                break;
        }
        if (c - tail >= size) {
            result = RING_FULL;
            break;
        }
        issue_ring[s] += 1;
        fu_ring[s * NUM_POOLS + p] += 1;
        issues[i] = c;
        const int64_t complete = c + latency[w];
        completes[i] = complete;
        if (mispredicted[w] == 1)
            redirect = complete + penalty;
        /* in-order commit */
        int64_t commit = complete + 1;
        if (last_commit > commit)
            commit = last_commit;
        if (gate > commit)
            commit = gate;
        if (commit == last_commit) {
            if (in_cycle >= commit_width) {
                commit += 1;
                in_cycle = 1;
            } else {
                in_cycle += 1;
            }
        } else {
            in_cycle = 1;
        }
        /* stall attribution: the gate held the row past the previous commit */
        if (entry >= 0 && gate > last_commit)
            stalls[binding[i]] += 1;
        last_commit = commit;
        commits[i] = commit;
        fetch = f;
        group = g;
    }
    d[L_NEXT] = i;
    d[L_TAIL] = tail;
    d[L_FETCH] = fetch;
    d[L_GROUP] = group;
    d[L_REDIRECT] = redirect;
    d[L_LAST_COMMIT] = last_commit;
    d[L_COMMITS_IN_CYCLE] = in_cycle;
    return result;
}

/*
 * Check rows [lo, hi) in order.  A row arrives at arrival[i] + transfer
 * (a float64 column, or an int64 commit column converted to double); the
 * checker's current trailing cycle, slot and unit counts and last
 * check-commit time carry in and out through the descriptor's carry/use
 * buffers.  Without RVP the row also waits for its source registers, and
 * every dst must index reg_ready (the caller sizes it).
 */
void checker_consume(int64_t *d, int64_t lo, int64_t hi, double transfer)
{
    const int64_t *pool = PTR(const int64_t, C_POOL);
    const int64_t *src1 = PTR(const int64_t, C_SRC1);
    const int64_t *src2 = PTR(const int64_t, C_SRC2);
    const int64_t *dst = PTR(const int64_t, C_DST);
    const int64_t *latency = PTR(const int64_t, C_LATENCY);
    const double *arrival_f = PTR(const double, C_ARRIVAL_F64);
    const int64_t *arrival_i = PTR(const int64_t, C_ARRIVAL_I64);
    double *out = PTR(double, C_OUT);
    double *reg_ready = PTR(double, C_REG_READY);
    const int64_t num_regs = d[C_NUM_REGS];
    double *carry = PTR(double, C_CARRY);
    int64_t *use = PTR(int64_t, C_USE);
    const int64_t width = d[C_WIDTH], rvp = d[C_RVP];
    const int64_t caps[NUM_POOLS] = {d[C_CAP0], d[C_CAP1], d[C_CAP2],
                                     d[C_CAP3]};
    double cycle = carry[0];
    const double length = carry[1];
    double last_done = carry[2];
    int64_t slots = use[0];
    int64_t fu[NUM_POOLS] = {use[1], use[2], use[3], use[4]};

    for (int64_t i = lo; i < hi; i++) {
        double earliest = arrival_f ? arrival_f[i] + transfer
                                    : (double)arrival_i[i] + transfer;
        if (!rvp) {
            int64_t r = src1[i];
            if (r >= 0 && r < num_regs && reg_ready[r] > earliest)
                earliest = reg_ready[r];
            r = src2[i];
            if (r >= 0 && r < num_regs && reg_ready[r] > earliest)
                earliest = reg_ready[r];
        }
        if (earliest >= cycle + length) {
            /* the trailer idles until the entry arrives */
            cycle = earliest;
            slots = 0;
            memset(fu, 0, sizeof fu);
        }
        const int64_t p = pool[i];
        if (slots >= width || fu[p] >= caps[p]) {
            cycle += length;
            slots = 0;
            memset(fu, 0, sizeof fu);
        }
        slots += 1;
        fu[p] += 1;
        double done = cycle + length;
        if (done < last_done)
            done = last_done;
        last_done = done;
        if (!rvp && dst[i] >= 0)
            reg_ready[dst[i]] = done + (double)(latency[i] - 1) * length;
        out[i] = done;
    }
    carry[0] = cycle;
    carry[2] = last_done;
    use[0] = slots;
    for (int p = 0; p < NUM_POOLS; p++)
        use[p + 1] = fu[p];
}

/* One cache's tag arrays: set s's row is the fill[s] lines from
 * tags[s * ways] on, oldest first; while owned[s] is 0 the row is the warm
 * row of the installed runs instead. */
typedef struct {
    int64_t *tags, *fill;
    uint8_t *owned;
    const int64_t *runs;    /* (first_line, num_lines) pairs */
    int64_t num_runs, sets, ways, shift;
} cache_t;

static cache_t cache_at(const int64_t *d, int64_t block)
{
    const int64_t *k = d + block;
    cache_t c = {
        (int64_t *)(intptr_t)k[K_TAGS], (int64_t *)(intptr_t)k[K_FILL],
        (uint8_t *)(intptr_t)k[K_OWNED], (const int64_t *)(intptr_t)k[K_RUNS],
        k[K_NUM_RUNS], k[K_SETS], k[K_WAYS], k[K_SHIFT],
    };
    return c;
}

/* Python's a % n for n > 0: never negative */
static int64_t floor_mod(int64_t a, int64_t n)
{
    const int64_t r = a % n;
    return r < 0 ? r + n : r;
}

/*
 * First touch of set s (Python: warm_lines): the row installing the runs
 * into an empty cache leaves.  The lines of a run that map to s form an
 * arithmetic progression with stride sets; every install misses, so the row
 * keeps the set's last `ways` installs.  Returns how many the set received.
 */
static int64_t own_row(const cache_t *c, int64_t s)
{
    int64_t *row = c->tags + s * c->ways;
    int64_t received = 0, kept = 0;
    for (int64_t r = 0; r < c->num_runs; r++) {
        const int64_t offset = floor_mod(s - c->runs[2 * r], c->sets);
        received += (c->runs[2 * r + 1] - offset + c->sets - 1) / c->sets;
    }
    int64_t evicted = received - c->ways;
    for (int64_t r = 0; r < c->num_runs; r++) {
        const int64_t offset = floor_mod(s - c->runs[2 * r], c->sets);
        int64_t start = c->runs[2 * r] + offset;
        int64_t n = (c->runs[2 * r + 1] - offset + c->sets - 1) / c->sets;
        if (evicted >= n) {
            evicted -= n;
            continue;
        }
        if (evicted > 0) {
            start += evicted * c->sets;
            n -= evicted;
            evicted = 0;
        }
        for (int64_t k = 0; k < n; k++)
            row[kept++] = start + k * c->sets;
    }
    c->fill[s] = kept;
    c->owned[s] = 1;
    return received;
}

/* True-LRU lookup-and-fill of `line`; returns whether it hit. */
static int lru_access(const cache_t *c, int64_t line)
{
    const int64_t s = floor_mod(line, c->sets);
    if (!c->owned[s])
        own_row(c, s);
    int64_t *row = c->tags + s * c->ways;
    const int64_t n = c->fill[s];
    for (int64_t i = 0; i < n; i++) {
        if (row[i] == line) {   /* move to MRU */
            memmove(row + i, row + i + 1, (size_t)(n - 1 - i) * sizeof *row);
            row[n - 1] = line;
            return 1;
        }
    }
    if (n == c->ways) {         /* evict the LRU line */
        memmove(row, row + 1, (size_t)(n - 1) * sizeof *row);
        row[n - 1] = line;
    } else {
        row[n] = line;
        c->fill[s] = n + 1;
    }
    return 0;
}

/*
 * One NUCA L2 access (Python: NucaCache.access).  Distributed sets: the set
 * is an LRU row in bank s % banks.  Distributed ways: way k of set s sits in
 * data bank slot_banks[slots[k]]; a hit swaps its slot with the slot-0
 * (closest) occupant and moves to MRU in slot 0, a miss takes the lowest
 * free slot or the LRU line's.  Returns the latency in cycles.
 */
static int64_t l2_access(const int64_t *d, const cache_t *c, int64_t address,
                         int64_t *counts)
{
    const int64_t line = address >> c->shift;
    const int64_t s = floor_mod(line, c->sets);
    const int64_t *slot_banks = PTR(const int64_t, M_SLOT_BANKS);
    const int64_t *bank_cycles = PTR(const int64_t, M_BANK_CYCLES);
    int64_t hit = 0, bank, latency;

    if (!d[M_DISTRIBUTED_WAYS]) {
        hit = lru_access(c, line);
        bank = s % d[M_NUM_BANKS];
        latency = bank_cycles[bank];
    } else {
        const int64_t ways = c->ways;
        int64_t *row = c->tags + s * ways;
        int8_t *slots = PTR(int8_t, M_L2_SLOTS) + s * ways;
        if (!c->owned[s]) {
            /* the set's k-th install went to slot k % ways */
            const int64_t first = own_row(c, s) - c->fill[s];
            for (int64_t k = 0; k < c->fill[s]; k++)
                slots[k] = (int8_t)((first + k) % ways);
        }
        const int64_t n = c->fill[s];
        int64_t i = 0, slot;
        while (i < n && row[i] != line)
            i++;
        if (i < n) {
            hit = 1;
            slot = slots[i];
            if (slot > 0) {     /* promotion */
                for (int64_t j = 0; j < n; j++) {
                    if (slots[j] == 0) {
                        slots[j] = (int8_t)slot;
                        break;
                    }
                }
            }
            memmove(row + i, row + i + 1, (size_t)(n - 1 - i) * sizeof *row);
            memmove(slots + i, slots + i + 1, (size_t)(n - 1 - i));
            row[n - 1] = line;
            slots[n - 1] = 0;
        } else if (n < ways) {  /* the lowest free slot */
            for (slot = 0;; slot++) {
                int64_t j = 0;
                while (j < n && slots[j] != slot)
                    j++;
                if (j == n)
                    break;
            }
            row[n] = line;
            slots[n] = (int8_t)slot;
            c->fill[s] = n + 1;
        } else {                /* evict the LRU line, reuse its slot */
            slot = slots[0];
            memmove(row, row + 1, (size_t)(n - 1) * sizeof *row);
            memmove(slots, slots + 1, (size_t)(n - 1));
            row[n - 1] = line;
            slots[n - 1] = (int8_t)slot;
        }
        bank = slot_banks[slot];
        latency = TAG_CYCLES + bank_cycles[bank];
    }
    if (hit) {
        if (!counts[N_L2_HITS] || latency < counts[N_LATENCY_MIN])
            counts[N_LATENCY_MIN] = latency;
        if (!counts[N_L2_HITS] || latency > counts[N_LATENCY_MAX])
            counts[N_LATENCY_MAX] = latency;
        counts[N_L2_HITS] += 1;
        counts[N_LATENCY_TOTAL] += latency;
    } else {
        latency += d[M_MEMORY_CYCLES];
        counts[N_L2_MISSES] += 1;
    }
    counts[N_BANKS + bank] += 1;
    return latency;
}

/*
 * Apply events [0, n) in order: kinds[e] selects a fetch (L1I, then the L2
 * in I-space on a miss), a load (L1D, then the L2 on a miss) or a store
 * commit (L1D only); out[e] receives the latency (0 for stores).  The
 * call's counts overwrite the counts buffer.
 */
void memory_probe(int64_t *d, const int64_t *kinds, const int64_t *addresses,
                  int64_t *out, int64_t n)
{
    const cache_t l1i = cache_at(d, M_L1I), l1d = cache_at(d, M_L1D);
    const cache_t l2 = cache_at(d, M_L2);
    const int64_t i_hit = d[M_I_HIT], d_hit = d[M_D_HIT];
    const int64_t i_space = d[M_I_SPACE];
    int64_t *counts = PTR(int64_t, M_COUNTS);

    memset(counts, 0, (size_t)(N_BANKS + d[M_NUM_BANKS]) * sizeof *counts);
    for (int64_t e = 0; e < n; e++) {
        const int64_t address = addresses[e];
        if (kinds[e] == EVENT_FETCH) {
            if (lru_access(&l1i, address >> l1i.shift)) {
                counts[N_L1I_HITS] += 1;
                out[e] = i_hit;
            } else {
                counts[N_L1I_MISSES] += 1;
                out[e] = i_hit + l2_access(d, &l2, address | i_space, counts);
            }
        } else if (lru_access(&l1d, address >> l1d.shift)) {
            counts[N_L1D_HITS] += 1;
            out[e] = kinds[e] == EVENT_LOAD ? d_hit : 0;
        } else {
            counts[N_L1D_MISSES] += 1;
            out[e] = kinds[e] == EVENT_LOAD
                         ? d_hit + l2_access(d, &l2, address, counts)
                         : 0;
        }
    }
}

/* One 2-bit saturating counter step. */
static int8_t saturate(int8_t counter, int up)
{
    if (up)
        return counter < 3 ? counter + 1 : 3;
    return counter > 0 ? counter - 1 : 0;
}

/*
 * Resolve branches [0, n) in order.  out[k] says whether branch k was
 * mispredicted: a wrong direction, or a taken branch whose target the BTB
 * did not hold.  The chooser (when the components disagree on correctness),
 * both direction counters, the global history and, for a taken branch, its
 * BTB row (entry moved or added at the MRU end, the oldest evicted from a
 * full row) then train on the outcome.  BTB rows are fill[s] entries from
 * s * ways on, oldest first.  Returns the number of mispredicts.
 */
int64_t branch_update(int64_t *d, const int64_t *pcs, const uint8_t *takens,
                      const int64_t *targets, uint8_t *out, int64_t n)
{
    int8_t *bimodal = PTR(int8_t, B_BIMODAL);
    int8_t *pht = PTR(int8_t, B_PHT);
    int8_t *chooser = PTR(int8_t, B_CHOOSER);
    uint32_t *tags = PTR(uint32_t, B_BTB_TAGS);
    uint32_t *btb_targets = PTR(uint32_t, B_BTB_TARGETS);
    int8_t *fill = PTR(int8_t, B_BTB_FILL);
    const int64_t bimodal_entries = d[B_BIMODAL_ENTRIES];
    const int64_t pht_entries = d[B_PHT_ENTRIES], mask = d[B_HISTORY_MASK];
    const int64_t sets = d[B_BTB_SETS], ways = d[B_BTB_WAYS];
    int64_t history = d[B_HISTORY], mispredicts = 0;

    for (int64_t k = 0; k < n; k++) {
        const int64_t pc = pcs[k], target = targets[k];
        const int taken = takens[k] != 0;
        const int64_t bi = floor_mod(pc >> 2, bimodal_entries);
        const int64_t ph = floor_mod((pc >> 2) ^ history, pht_entries);
        const int bimodal_taken = bimodal[bi] >= TAKEN_THRESHOLD;
        const int pht_taken = pht[ph] >= TAKEN_THRESHOLD;
        const int predicted =
            chooser[bi] >= TAKEN_THRESHOLD ? pht_taken : bimodal_taken;
        const int64_t s = floor_mod(pc >> 2, sets);
        uint32_t *row = tags + s * ways, *row_targets = btb_targets + s * ways;
        int64_t filled = fill[s], hit = -1;
        if (predicted || taken) {
            for (int64_t w = 0; w < filled; w++) {
                if (row[w] == (uint32_t)pc) {
                    hit = w;
                    break;
                }
            }
        }
        const int wrong = predicted != taken
            || (taken && (hit < 0 || row_targets[hit] != (uint32_t)target));
        out[k] = (uint8_t)wrong;
        mispredicts += wrong;

        if ((pht_taken == taken) != (bimodal_taken == taken))
            chooser[bi] = saturate(chooser[bi], pht_taken == taken);
        bimodal[bi] = saturate(bimodal[bi], taken);
        pht[ph] = saturate(pht[ph], taken);
        history = ((history << 1) | taken) & mask;

        if (taken) {
            if (hit >= 0) {
                memmove(row + hit, row + hit + 1,
                        (size_t)(filled - 1 - hit) * sizeof *row);
                memmove(row_targets + hit, row_targets + hit + 1,
                        (size_t)(filled - 1 - hit) * sizeof *row_targets);
                filled -= 1;
            } else if (filled == ways) {
                memmove(row, row + 1, (size_t)(ways - 1) * sizeof *row);
                memmove(row_targets, row_targets + 1,
                        (size_t)(ways - 1) * sizeof *row_targets);
                filled -= 1;
            }
            row[filled] = (uint32_t)pc;
            row_targets[filled] = (uint32_t)target;
            fill[s] = (int8_t)(filled + 1);
        }
    }
    d[B_HISTORY] = history;
    return mispredicts;
}

/* The last `size` rows of one class, oldest at `slot` once `count`
 * reaches `size`.  The buffer holds min(size, rows) entries, enough
 * because slot < size and slot <= count < rows. */
typedef struct {
    int64_t *rows;
    int64_t size, count, slot;
} ring_t;

/* The row `size` rows of the class back from row i (-1 while the class has
 * fewer), then row i joins the ring. */
static int64_t ring_gate(ring_t *r, int64_t i)
{
    const int64_t gate = r->count >= r->size ? r->rows[r->slot] : -1;
    r->rows[r->slot] = i;
    r->count += 1;
    if (++r->slot == r->size)
        r->slot = 0;
    return gate;
}

/*
 * Rows [0, n) of a trace's schedule in one pass.  cg[i]: the later of row
 * i - rob and the lsq-th previous memory row, or -1; ig[i]: the iq-th
 * previous row of i's issue-queue class (fp or int), or -1; w1[i]/w2[i]:
 * the last row before i that wrote its source register, or -1.  Negative
 * registers name none; the others index writers, which the caller sizes
 * past the largest and fills with -1.
 */
void trace_schedule(int64_t *d, int64_t n)
{
    const int8_t *op = PTR(const int8_t, T_OP);
    const int16_t *dst = PTR(const int16_t, T_DST);
    const int16_t *src1 = PTR(const int16_t, T_SRC1);
    const int16_t *src2 = PTR(const int16_t, T_SRC2);
    int64_t *cg = PTR(int64_t, T_CG), *ig = PTR(int64_t, T_IG);
    int64_t *w1 = PTR(int64_t, T_W1), *w2 = PTR(int64_t, T_W2);
    const int8_t *op_class = PTR(const int8_t, T_OP_CLASS);
    int64_t *writers = PTR(int64_t, T_WRITERS);
    ring_t memory = {PTR(int64_t, T_MEM_RING), d[T_LSQ], 0, 0};
    ring_t int_queue = {PTR(int64_t, T_INT_RING), d[T_INT_IQ], 0, 0};
    ring_t fp_queue = {PTR(int64_t, T_FP_RING), d[T_FP_IQ], 0, 0};
    const int64_t rob = d[T_ROB];

    for (int64_t i = 0; i < n; i++) {
        const int8_t cls = op_class[op[i]];
        int64_t gate = i - rob;
        if (cls & CLASS_MEMORY) {
            const int64_t lsq_gate = ring_gate(&memory, i);
            if (lsq_gate > gate)
                gate = lsq_gate;
        }
        cg[i] = gate < -1 ? -1 : gate;
        ig[i] = ring_gate(cls & CLASS_FP ? &fp_queue : &int_queue, i);
        w1[i] = src1[i] >= 0 ? writers[src1[i]] : -1;
        w2[i] = src2[i] >= 0 ? writers[src2[i]] : -1;
        if (dst[i] >= 0)
            writers[dst[i]] = i;
    }
}
