/* One k-opt sample, the compiled form of tsplab.mcts._sample_action.
 *
 * Every step mirrors the Python function: the same candidates are tried in
 * the same order, each potential is the same IEEE double arithmetic in the
 * same order (build with -ffp-contract=off, so no step is fused), and each
 * draw comes from the solve's own numpy generator through its bit
 * generator, exactly as rng.integers and rng.random draw.  So the same
 * seed gives the same action, tour, length, counts and generator state,
 * bit for bit.
 */

#include <math.h>
#include <stdint.h>

/* numpy's bitgen_t, numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Pointers that stay fixed for the life of one MctsState.  Mirrored by
 * tsplab._kopt._Context; keep the two in the same order. */
typedef struct {
    int64_t n;
    int64_t kc;             /* candidates per vertex */
    int64_t max_depth;
    double alpha;
    const double *d;        /* n x n distances */
    const double *W;        /* n x n edge weights */
    int64_t *Q;             /* n x n visit counts */
    const double *row_sums; /* n */
    const int64_t *cand;    /* n x kc candidate lists */
    const int64_t *current; /* n, the working tour */
    const int64_t *cur_pos; /* n, position of each vertex in current */
    int64_t *order;         /* n, the sampled tour */
    int64_t *pos;           /* n, position of each vertex in order */
    int64_t *seq;           /* 2 * max_depth + 1, the action */
    int64_t *deleted;       /* max_depth edge keys */
    int64_t *added;         /* max_depth edge keys */
    int64_t *feasible;      /* kc */
    double *cum;            /* kc */
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

static int64_t edge_key(int64_t u, int64_t v, int64_t n)
{
    return u < v ? u * n + v : v * n + u;
}

static int contains(const int64_t *keys, int64_t count, int64_t key)
{
    for (int64_t i = 0; i < count; i++)
        if (keys[i] == key)
            return 1;
    return 0;
}

/* mcts._pick over cum[0..count), which first holds the potentials */
static int64_t pick(double *cum, int64_t count, bitgen_t *bg)
{
    const int64_t last = count - 1;
    double total;
    double r;
    int64_t lo = 0, hi = count;

    for (int64_t i = 1; i < count; i++)
        cum[i] = cum[i - 1] + cum[i];
    total = cum[last];
    if (!isfinite(total) || total <= 0.0)
        return draw_below(bg, count);
    r = bg->next_double(bg->state) * total;
    while (lo < hi) { /* bisect.bisect_right */
        const int64_t mid = (lo + hi) / 2;
        if (r < cum[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo < last ? lo : last;
}

/* Returns the length of the action in c->seq, or 0 when the anchor admits
 * no extension (then M and Q stay as they were).  *out_length receives the
 * closed length of the tour left in c->order. */
int64_t kopt_sample(const kopt_ctx *c, bitgen_t *bg, double c0, double bonus, double *out_length)
{
    const int64_t n = c->n;
    const double *d = c->d;
    int64_t *order = c->order;
    int64_t *pos = c->pos;
    int64_t *seq = c->seq;
    const double n1 = (double)(n - 1);
    const int64_t a1 = draw_below(bg, n);
    const int64_t i0 = c->cur_pos[a1];
    int64_t b, k = 1, nd = 1, na = 0, len = 2;
    double length = c0;

    for (int64_t t = 0; t < n; t++) {
        const int64_t v = c->current[i0 + t < n ? i0 + t : i0 + t - n];
        order[t] = v;
        pos[v] = t;
    }
    b = order[1];
    c->deleted[0] = edge_key(a1, b, n);
    seq[0] = a1;
    seq[1] = b;

    for (;;) {
        const int64_t *row = c->cand + b * c->kc;
        int64_t nf = 0;
        int64_t ch, j, bn;

        for (int64_t i = 0; i < c->kc; i++) {
            const int64_t u = row[i];
            const int64_t ju = pos[u];
            if (ju < 3)
                continue;
            if (contains(c->deleted, nd, edge_key(b, u, n)))
                continue;
            if (na && contains(c->added, na, edge_key(order[ju - 1], u, n)))
                continue;
            c->feasible[nf++] = u;
        }
        if (nf == 0) {
            if (k >= 2 && !contains(c->deleted, nd, edge_key(a1, b, n)))
                break;
            return 0;
        }
        {
            const double om = c->row_sums[b] / n1;
            for (int64_t i = 0; i < nf; i++) {
                const int64_t e = b * n + c->feasible[i];
                c->cum[i] = c->W[e] / om + c->alpha * sqrt(bonus / ((double)c->Q[e] + 1.0));
            }
        }
        ch = c->feasible[pick(c->cum, nf, bg)];

        j = pos[ch];
        bn = order[j - 1];
        length += d[a1 * n + bn] + d[b * n + ch] - d[a1 * n + b] - d[bn * n + ch];
        c->deleted[nd++] = edge_key(bn, ch, n);
        c->added[na++] = edge_key(b, ch, n);
        seq[len++] = ch;
        seq[len++] = bn;
        for (int64_t lo = 1, hi = j - 1; lo < hi; lo++, hi--) {
            const int64_t tmp = order[lo];
            order[lo] = order[hi];
            order[hi] = tmp;
        }
        for (int64_t t = 1; t < j; t++)
            pos[order[t]] = t;
        b = bn;
        k++;
        {
            const int closeable = !contains(c->deleted, nd, edge_key(a1, b, n));
            if ((length < c0 || k >= c->max_depth) && closeable)
                break;
        }
        if (k >= c->max_depth)
            return 0;
    }

    seq[len++] = a1;
    for (int64_t t = 1; t < len - 1; t += 2) {
        const int64_t u = seq[t], v = seq[t + 1];
        c->Q[u * n + v] += 1;
        c->Q[v * n + u] += 1;
    }
    *out_length = length;
    return len;
}
