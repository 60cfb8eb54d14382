/* The search loop of tsplab.mcts, its only implementation: the sample ->
 * reject -> count-fails cycle of a solve (kopt_run; mcts.sample_kopt is one
 * kopt_run step), the restart tour (kopt_construct, run by
 * mcts.construct_tour and each restart) and first-improvement 2-opt
 * (kopt_two_opt, run by tsplab._kopt.two_opt).  Every edge is measured from
 * the coordinates by dist(); no distance matrix is held.
 *
 * Python forms of all three live in the tests as oracles, reading
 * geometry.distance_matrix: the sampler, run loop and restart construction
 * in tests/test_mcts.py, a dense 2-opt rescan in tests/test_geometry.py.
 * Every step mirrors them: the same candidates are tried in the same order,
 * each distance, potential and 2-opt delta is the same IEEE double
 * arithmetic in the same order (build with -ffp-contract=off, so no step is
 * fused), and each draw comes from the solve's own numpy generator through
 * its bit generator, exactly as rng.integers and rng.random draw.  So the
 * same seed gives the same action, tour, length, counts and generator
 * state, bit for bit.
 */

/* clock_gettime and CLOCK_MONOTONIC under a strict -std */
#define _POSIX_C_SOURCE 199309L

#include <math.h>
#include <stdint.h>
#include <time.h>

/* numpy's bitgen_t, numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* What one MctsState shares with the kernel: the pointers fixed for its
 * life (its arrays, then from cur_pos on the kernel's own scratch, which
 * tsplab._kopt.bind allocates), then the counters of a kopt_run call.
 * An action's edges are not kept: kopt_sample tests them on cur_pos.
 * Mirrored by tsplab._kopt._Context; keep the two in the same order. */
typedef struct {
    int64_t n;
    int64_t kc;             /* candidates per vertex */
    int64_t max_depth;
    double alpha;
    const double *pts;      /* n x 2 coordinates */
    const double *W;        /* n x n edge weights */
    int64_t *Q;             /* n x n visit counts */
    const double *row_sums; /* n */
    const int64_t *cand;    /* n x kc candidate lists */
    const int64_t *current; /* n, the working tour */
    int64_t *cur_pos;       /* n, position of each vertex in current, set by kopt_run */
    int64_t *order;         /* n, the sampled tour */
    int64_t *pos;           /* n, position of each vertex in order */
    int64_t *seq;           /* 2 * max_depth + 1, the action */
    int64_t *feasible;      /* kc */
    double *cum;            /* kc */
    int64_t M;              /* actions sampled, in and out; kopt_construct reads it */
    int64_t fails;          /* samples since the last accepted move, in and out */
    int64_t stagnation;     /* return once fails reaches this */
    int64_t max_actions;    /* return once M reaches this */
    double current_length;  /* closed length of current */
    double seconds;         /* return once this much time has passed */
    int64_t count;          /* out: vertex count of the last sample in seq, 0 for none */
    double length;          /* out: closed length of the last sample, the tour in order */
} kopt_ctx;

/* rng.integers(bound) for 0 < bound < 2**32: numpy's Lemire bounded draw */
static int64_t draw_below(bitgen_t *bg, int64_t bound)
{
    const uint32_t rng = (uint32_t)(bound - 1);
    const uint32_t rng_excl = rng + 1;
    uint64_t m;
    uint32_t leftover;

    if (rng == 0)
        return 0; /* numpy makes no draw for a single value */
    m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* |uv| as sqrt(dx * dx + dy * dy), the one distance formula: numpy
 * computes geometry.distance_matrix and geometry.cycle_length by the same
 * operations in the same order, so this is bit for bit their entry (u, v) */
static double dist(const double *pts, int64_t u, int64_t v)
{
    const double dx = pts[2 * u] - pts[2 * v];
    const double dy = pts[2 * u + 1] - pts[2 * v + 1];

    return sqrt(dx * dx + dy * dy);
}

static int adjacent(const int64_t *cur_pos, int64_t n, int64_t u, int64_t v)
{
    const int64_t gap = cur_pos[u] - cur_pos[v];

    return gap == 1 || gap == -1 || gap == n - 1 || gap == 1 - n;
}

/* The vertex drawn after v from c->feasible[0..count): each edge (v, u)
 * weighted by its potential at log(M + 1) = bonus, summed left to right into
 * c->cum, and the first sum greater than next_double() * total taken, as
 * np.searchsorted(side="right") finds it; a uniform draw when the total is
 * zero or not finite. */
static int64_t pick(kopt_ctx *c, int64_t v, int64_t count, double bonus, bitgen_t *bg)
{
    const double om = c->row_sums[v] / (double)(c->n - 1);
    const int64_t last = count - 1;
    double *cum = c->cum;
    double total;
    double r;
    int64_t lo = 0, hi = count;

    for (int64_t i = 0; i < count; i++) {
        const int64_t e = v * c->n + c->feasible[i];
        cum[i] = c->W[e] / om + c->alpha * sqrt(bonus / ((double)c->Q[e] + 1.0));
        if (i > 0)
            cum[i] += cum[i - 1];
    }
    total = cum[last];
    if (!isfinite(total) || total <= 0.0)
        return c->feasible[draw_below(bg, count)];
    r = bg->next_double(bg->state) * total;
    while (lo < hi) {
        const int64_t mid = (lo + hi) / 2;
        if (r < cum[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return c->feasible[lo < last ? lo : last];
}

/* One sample: returns the length of the action in c->seq, or 0 when the
 * anchor admits no extension (then Q stays as it was).  c->length receives
 * the closed length of the tour left in c->order.  M is left to the caller.
 *
 * order closed by (a1, b) is always the cycle current - deleted + added +
 * (a1, b); every deleted edge is an edge of current and no added one is.
 * So the oracle's edge-set rules are O(1) tests on cur_pos: for u at
 * position ju >= 3, the chord (b, u) is deleted iff b and u are adjacent
 * in current, the edge (order[ju - 1], u) is added iff those two are not,
 * and closing by (a1, b) re-adds a deleted edge iff b is b1 = seq[1]. */
static int64_t kopt_sample(kopt_ctx *c, bitgen_t *bg)
{
    const int64_t n = c->n;
    const double *pts = c->pts;
    const int64_t *cur_pos = c->cur_pos;
    int64_t *order = c->order;
    int64_t *pos = c->pos;
    int64_t *seq = c->seq;
    const int64_t a1 = draw_below(bg, n);
    const int64_t i0 = cur_pos[a1];
    const double c0 = c->current_length;
    const double bonus = log((double)c->M + 1.0);
    int64_t b, b1, k = 1, len = 2;
    double length = c0, d_ab;

    for (int64_t t = 0; t < n; t++) {
        const int64_t v = c->current[i0 + t < n ? i0 + t : i0 + t - n];
        order[t] = v;
        pos[v] = t;
    }
    b = b1 = order[1];
    d_ab = dist(pts, a1, b);
    seq[0] = a1;
    seq[1] = b;

    for (;;) {
        const int64_t *row = c->cand + b * c->kc;
        int64_t nf = 0;
        int64_t ch, j, bn;
        double d_abn;

        for (int64_t i = 0; i < c->kc; i++) {
            const int64_t u = row[i];
            const int64_t ju = pos[u];
            if (ju < 3 || adjacent(cur_pos, n, b, u)
                || !adjacent(cur_pos, n, order[ju - 1], u))
                continue;
            c->feasible[nf++] = u;
        }
        if (nf == 0) {
            if (b != b1) /* b is b1 at k = 1 */
                break;
            return 0;
        }
        ch = pick(c, b, nf, bonus, bg);

        j = pos[ch];
        bn = order[j - 1];
        d_abn = dist(pts, a1, bn);
        length += d_abn + dist(pts, b, ch) - d_ab - dist(pts, bn, ch);
        d_ab = d_abn;
        seq[len++] = ch;
        seq[len++] = bn;
        for (int64_t lo = 1, hi = j - 1; lo < hi; lo++, hi--) {
            const int64_t tmp = order[lo];
            order[lo] = order[hi];
            order[hi] = tmp;
            pos[order[lo]] = lo;
            pos[tmp] = hi;
        }
        b = bn;
        k++;
        if ((length < c0 || k >= c->max_depth) && b != b1)
            break;
        if (k >= c->max_depth)
            return 0;
    }

    seq[len++] = a1;
    for (int64_t t = 1; t < len - 1; t += 2) {
        const int64_t u = seq[t], v = seq[t + 1];
        c->Q[u * n + v] += 1;
        c->Q[v * n + u] += 1;
    }
    c->length = length;
    return len;
}

/* A restart tour by the chain rule, into c->order: a uniform first vertex,
 * then each next one drawn by pick among the unvisited candidates of the
 * last, at c->M.  When none is left it hops to the nearest unvisited
 * vertex, the first on a tie as np.argmin takes.  c->pos marks the visited
 * vertices and ends as the position of each in c->order. */
void kopt_construct(kopt_ctx *c, bitgen_t *bg)
{
    const int64_t n = c->n;
    const double bonus = log((double)c->M + 1.0);
    int64_t *order = c->order;
    int64_t *pos = c->pos;
    int64_t v = draw_below(bg, n);

    for (int64_t u = 0; u < n; u++)
        pos[u] = -1;
    order[0] = v;
    pos[v] = 0;
    for (int64_t t = 1; t < n; t++) {
        const int64_t *row = c->cand + v * c->kc;
        int64_t nf = 0;

        for (int64_t i = 0; i < c->kc; i++)
            if (pos[row[i]] < 0)
                c->feasible[nf++] = row[i];
        if (nf > 0) {
            v = pick(c, v, nf, bonus, bg);
        } else {
            int64_t near = -1;
            double best = INFINITY;
            for (int64_t u = 0; u < n; u++) {
                const double du = pos[u] < 0 ? dist(c->pts, v, u) : INFINITY;
                if (du < best) {
                    near = u;
                    best = du;
                }
            }
            v = near;
        }
        order[t] = v;
        pos[v] = t;
    }
}

/* what tsplab._kopt checks its ctypes mirror against */
const int64_t kopt_sizeof_ctx = sizeof(kopt_ctx);

/* kopt_run's events, mirrored by tsplab._kopt */
enum { KOPT_CANDIDATE = 1, KOPT_STAGNATION = 2, KOPT_CAP = 3, KOPT_TIME = 4 };

static double seconds_since(const struct timespec *t0)
{
    struct timespec t;

    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)(t.tv_sec - t0->tv_sec) + 1e-9 * (double)(t.tv_nsec - t0->tv_nsec);
}

/* Samples until one of four events and returns it:
 *  - KOPT_CANDIDATE: an action whose incremental length beats
 *    c->current_length; it is not counted as a fail, and the caller
 *    re-measures it and accepts or rejects it;
 *  - KOPT_STAGNATION: c->fails reached c->stagnation;
 *  - KOPT_CAP: c->M reached c->max_actions (checked before each sample);
 *  - KOPT_TIME: c->seconds passed since entry (checked before each sample).
 * Every other sample is a fail: a dead end, or an action no shorter than
 * the working tour.  On every event c->count, c->length, c->seq and
 * c->order hold the last sample of the call; c->count is 0 when the call
 * drew none or its last was a dead end.  Entry indexes c->current into
 * c->cur_pos, so current may change between calls.  The clock is the
 * kernel's own, so it need not agree with the caller's. */
int64_t kopt_run(kopt_ctx *c, bitgen_t *bg)
{
    struct timespec t0;

    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (int64_t t = 0; t < c->n; t++)
        c->cur_pos[c->current[t]] = t;
    c->count = 0;
    for (;;) {
        if (c->M >= c->max_actions)
            return KOPT_CAP;
        if (seconds_since(&t0) >= c->seconds)
            return KOPT_TIME;
        c->count = kopt_sample(c, bg);
        if (c->count != 0) {
            c->M++;
            if (c->length < c->current_length)
                return KOPT_CANDIDATE;
        }
        if (++c->fails >= c->stagnation)
            return KOPT_STAGNATION;
    }
}

/* Row-major first pair (r, col) among rows r0..r1-1 and columns c0..c1-1
 * with col >= r + 2, not (0, n-1), whose reversal shortens the tour by
 * more than eps.  Returns 1 and stores the pair, or returns 0. */
static int first_hit(const double *pts, int64_t n, const int64_t *order, const double *edge,
                     double eps, int64_t r0, int64_t r1, int64_t c0, int64_t c1,
                     int64_t *hit_r, int64_t *hit_c)
{
    for (int64_t r = r0; r < r1; r++) {
        const int64_t a = order[r];
        const int64_t b = order[r + 1];
        const double er = edge[r];
        /* (0, n-1) would reverse the whole cycle */
        const int64_t stop = r == 0 && c1 == n ? n - 1 : c1;

        for (int64_t col = c0 > r + 2 ? c0 : r + 2; col < stop; col++) {
            const int64_t next = order[col + 1 < n ? col + 1 : 0];
            /* replace edges (r, r+1) and (col, col+1) with (r, col) and (r+1, col+1) */
            if (((dist(pts, a, order[col]) + dist(pts, b, next)) - er) - edge[col] < -eps) {
                *hit_r = r;
                *hit_c = col;
                return 1;
            }
        }
    }
    return 0;
}

/* First-improvement 2-opt on order[0..n), n >= 4, in place: the moves a
 * full rescan after each move would make.  After move (i, j) no earlier pair improves
 * and only pairs in rows >= i or columns i..j changed, so the next search
 * checks rows below i over columns i..j, then scans on from row i.  pts is
 * n x 2 coordinates, edge n doubles of scratch.  Stops once the tour is
 * 2-optimal, or after the first move made once `seconds` have passed. */
void kopt_two_opt(const double *pts, int64_t n, int64_t *order, double *edge, double eps,
                  double seconds)
{
    struct timespec t0;
    int64_t i = 0, j = 0;

    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (int64_t t = 0; t < n; t++)
        edge[t] = dist(pts, order[t], order[t + 1 < n ? t + 1 : 0]);
    for (;;) {
        int64_t hi, hj;

        if (!(i > 0 && first_hit(pts, n, order, edge, eps, 0, i, i, j + 1, &hi, &hj))
            && !first_hit(pts, n, order, edge, eps, i, n - 2, i + 2, n, &hi, &hj))
            return;
        i = hi;
        j = hj;
        for (int64_t lo = i + 1, up = j; lo < up; lo++, up--) {
            const int64_t tmp = order[lo];
            order[lo] = order[up];
            order[up] = tmp;
        }
        for (int64_t t = i; t <= j; t++)
            edge[t] = dist(pts, order[t], order[t + 1 < n ? t + 1 : 0]);
        if (seconds_since(&t0) >= seconds)
            return;
    }
}
