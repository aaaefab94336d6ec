/*
 * Compiled per-row timing kernels of repro.core.
 *
 * Two scans, each the per-row recurrence of a Python oracle:
 *
 *   leading_scan     the leading core's issue/retire recurrence over
 *                    TraceSchedule columns, with the RMT harness's queue
 *                    gating inline (oracles: LeadingCoreTiming._advance,
 *                    RmtSimulator._run_reference);
 *   checker_consume  the in-order checker's consume, with or without
 *                    register value prediction (oracle:
 *                    InOrderCheckerTiming.consume_op).
 *
 * Python owns every buffer.  Each scan reads one int64 descriptor (column
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

#define PTR(type, slot) ((type *)(intptr_t)d[slot])

int64_t leading_slots(void) { return L_SLOTS; }
int64_t checker_slots(void) { return C_SLOTS; }

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
