/*
 * Counting walk of the pruned set-enumeration tree on uint64_t vertex masks.
 *
 * This file is the walk's one implementation. A node holds a
 * mutual-visibility set X (its members, in increasing order) and extends it
 * only with vertices above its maximum; a child that fails the membership
 * test is cut off with its whole subtree. The pruning is sound because the
 * property is hereditary: every subset of a mutual-visibility set is one.
 * Each child is tested incrementally, under the walk's own vertex order:
 *
 * - Vertex order (relabel). The tree's size depends on the labels, since a
 *   node extends X only above its maximum, while the counts do not. So a
 *   graph of more than BLOCK_MAX vertices is walked under one fixed order,
 *   its masks relabelled into the Walk and nothing mapped back: BFS
 *   positions, each component in turn from its unvisited vertex of least
 *   degree (lowest label on ties), neighbours in mask order; then a stable
 *   sort by simplicial vertex last, degree descending. A simplicial vertex,
 *   whose neighbours are pairwise adjacent, is inside no shortest path and
 *   never blocks, so with the highest labels such vertices end the tree in
 *   closures and leaf blocks; BFS ties keep intervals and propagation
 *   regions short. random_tree(Random(3), 40) pops 33,136 nodes, against
 *   262,726 under its own labels and 3,548,715 under the plain BFS order.
 * - Candidate mask. A node carries the vertices above its maximum that
 *   passed at its parent. By heredity no other vertex can pass, so a vertex
 *   that failed at an ancestor is never tested again (as in Bron-Kerbosch).
 * - Interval filter. Adding v to X is accepted when every member sees v and
 *   v blocks no pair of members. Each question is one clear-set propagation
 *   (clear_targets). The first condition takes one per member for all
 *   candidates at once, or one from each candidate when there are fewer
 *   candidates than members. For the second, a node keeps, per member u, the
 *   union of the interiors of the intervals I(u, w) over the later members w
 *   (its spans); only a candidate inside that union can block a pair whose
 *   lower end is u, and it is tested from u to the members above u only, so
 *   each pair is settled once. A vertex alone at its distance from u in
 *   I(u, w) lies on every shortest u-w path, so it leaves the candidates of
 *   every set holding u and w untested.
 * - Shadow filter. A vertex x with v on every shortest u-x path is hidden
 *   from u by v, so a set holding u and v can never take it either: when a
 *   child adds v, every candidate in shadow[u][v] or shadow[v][u], u a
 *   member, leaves the candidates untested, with the cut vertices above; the
 *   memoised interval mask holds both, so a child pays no extra load.
 *   shadow[u][v] is the subtree of v in u's dominator tree over the BFS
 *   layers, built once per graph of more than BLOCK_MAX vertices (a smaller
 *   root is a leaf block and makes no child). Where shortest paths are
 *   unique, as on paths, odd cycles and trees, every failing candidate
 *   fails this way: P_64 takes 118 propagations a walk, where the cut
 *   filter alone takes 3,898.
 * - Leaf block (leaf_block). A node with 2 <= p <= BLOCK_MAX = 9 passed
 *   candidates c_0..c_{p-1} evaluates all 2^p sets X + S of its subtree at
 *   once, as the bits of W = 2^(p - 6) uint64_t words (one word for p <= 6):
 *   bit s of word k stands for the S holding c_i, i < 6, when bit i of s is
 *   set and c_i, i >= 6, when bit i - 6 of k is. A member blocks in every
 *   bit; c_i, i < 6, in the bits of PATTERNS[i] of every word; c_i, i >= 6,
 *   in all of word k when bit i - 6 of k is set and in none of the others;
 *   any other vertex blocks in none. Since X and each X + c_i passed, a pair
 *   of members needs a test only when two candidates lie in its interval, a
 *   member and a candidate only when another candidate does, and two
 *   candidates when any vertex of X + P does. A blocker that cuts its pair
 *   fails the sets holding all three: the block marks that smallest failing
 *   set (one bit) and adds all its supersets in one pass per candidate at the
 *   end. The other pairs take one clear-set propagation per source over
 *   their intervals only, each vertex visited carrying W words. Set s of
 *   word k holds popcount(k) + popcount(s) candidates, so each word k and
 *   size j add popcount(good & SIZES[j]) to entry |X| + popcount(k) + j; for
 *   Theta the good sets are first split by diameter, the largest of diam(X),
 *   each candidate's farthest member and each candidate pair's distance.
 *   The body is written once and specialised for each W. Measured per walk
 *   on the 4x5 grid, Q_4 and G(16, .5), blocks of p <= 8 only and of
 *   p <= 10 were both slower than p <= 9 (by 6-46%); long cycles pay for the
 *   wide blocks (C_24 about 1.3x slower than with p <= 6), since their
 *   antipodal pairs propagate around the whole cycle in W words and most of
 *   a wide block's sets fail.
 * - Closure shortcut (closes), for nodes with p = 1 or p > BLOCK_MAX. When
 *   the members together with all p passed candidates form a
 *   mutual-visibility set, every combination of the candidates is one too,
 *   so the subtree is counted and not walked. The check is a plain
 *   membership test: with p >= 2, X + P passes when every vertex of it but
 *   the highest sees each higher one; the pair rules live in the leaf block
 *   only. The p >= 10 check runs 86, 45 and 46 times a walk on the 4x5 grid,
 *   Q_4 and G(16, .5); it fails every time at its first propagation on the
 *   first two, passes twice on the third (44 failures in 61 propagations)
 *   and passes at K_16's root. For the polynomial the node adds C(p, j) to
 *   entry |X| + j. For the (size, diameter) table (count_closed_theta), each
 *   D from diam(X) until the candidates form one clique takes the candidates
 *   in the balls of radius D about every member, joins those within D of
 *   each other and counts the cliques by size by pivoting, listing none; the
 *   cliques new at D are the sets of diameter D.
 *
 * Its references in the tests are a golden per-graph file, brute force
 * (polynomial and (size, diameter) table, up to 25 vertices), the plain
 * walk of enumeration.iter_mv_sets above that, an all-paths oracle and the
 * closed forms; the counters are pinned to fixed values on fixed graphs.
 *
 * One call per graph:
 * visipoly_walk(n, adj, theta, out, counters).
 *   n         its order, 0..64
 *   adj       its n neighbourhood masks
 *   theta     0: out holds n + 1 entries, and entry k counts the sets of
 *             size k (k = 0..n), so entry 0 is 1, the empty set;
 *             1: out holds (n + 1) * max(n, 1) entries, and entry k * n + d
 *             counts those of size k and diameter d, so entry 0 is 1
 *   out       zeroed by the caller
 *   counters  five entries: nodes popped, nodes closed by the shortcut,
 *             membership propagations (clear_targets() and the blocks'
 *             blocked()), leaf blocks of 2..9 candidates evaluated
 *             (the sets of a block are counted but never popped), and
 *             candidates hidden, those a child lost to the cut and shadow
 *             filters
 * Returns the largest size k of a counted set (0 when the empty set is the
 * only one), so the caller reads no row past k; or -1 when the order is out
 * of range or memory runs out, and then nothing is counted.
 *
 * One call per chunk of graph6 records, decoded, counted and keyed by size:
 * visipoly_walk_graph6(text, length, keys, capacity, counters).
 *   text      length bytes: the records, one a line, separated by '\n', so k
 *             line breaks separate k + 1 records
 *   keys      one line per record, in turn: a counted record's key
 *             "[c0,c1,...,ck]", entry k counting its sets of size k, trailing
 *             zeros trimmed, as polynomial._canonical_text writes it; an empty
 *             line for a declined one
 *   capacity  the bytes keys holds; a record of order n may take KEY_MAX(n),
 *             as an entry has at most 20 digits
 *   counters  as for visipoly_walk, summed over the counted records
 * Only a short-form record that decodes in full is counted: order 0..62
 * (first byte 63..125), every byte 63..126, exactly 1 + ceil(n(n - 1) / 12)
 * bytes and zero padding bits. Its masks get both bits of every edge, so they
 * are symmetric and loop-free. Every other record, long-form ones included,
 * is declined and left to the caller's parser, which names the fault; a line
 * of another length is declined by its first byte and its length alone, so
 * no line longer than order 62's 317 bytes is read. Every vertex is a
 * mutual-visibility set, so a key's entry 1 is its record's order, and "[1]"
 * is order 0.
 * Returns the number of bytes written to keys, or -1 when memory runs out or
 * the next record's KEY_MAX would pass capacity; nothing is written past it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64
#define BLOCK_MAX 9                /* a leaf block's 2^p sets fit WORDS_MAX uint64_t */
#define WORDS_MAX (1 << (BLOCK_MAX - 6))
#define SHORT_MAX 62               /* the largest order of a one-byte graph6 order field */
#define KEY_MAX(n) (2 + 21 * ((n) + 1) + 1) /* brackets, n + 1 entries with commas, newline */

/* Bit s of PATTERNS[i] is set when bit i of s is: the sets of a block holding candidate i. */
static const uint64_t PATTERNS[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};
/* Bit s of SIZES[j] is set when s has j bits set. */
static const uint64_t SIZES[7] = {
    0x0000000000000001ULL, 0x0000000100010116ULL, 0x0001011601161668ULL,
    0x0116166816686880ULL, 0x1668688068808000ULL, 0x6880800080000000ULL,
    0x8000000000000000ULL,
};

typedef struct {
    int n;
    int theta;
    uint64_t *out;
    uint64_t nodes, closed, propagations, blocks, hidden;
    const uint64_t *adj;           /* the caller's masks, or relabelled */
    uint64_t relabelled[MAXN];     /* the masks under relabel()'s order */
    int depth[MAXN];               /* number of BFS layers from u */
    uint64_t layers[MAXN][MAXN];   /* layers[u][d]: vertices at distance d from u */
    int8_t dist[MAXN][MAXN];       /* -1 when unreachable */
    uint8_t known[MAXN][MAXN];     /* interval (u, v) memoised */
    uint64_t inner[MAXN][MAXN];    /* interior of I(u, v) */
    uint64_t cuts[MAXN][MAXN];     /* vertices of I(u, v) on every shortest path, and when
                                      n > BLOCK_MAX shadow[u][v] | shadow[v][u] */
    uint64_t shadow[MAXN][MAXN];   /* shadow[u][v]: vertices x != v with v on every shortest
                                      u-x path; built only when n > BLOCK_MAX */
    uint64_t balls[MAXN][MAXN];    /* balls[d][v]: vertices within d of v */
    uint64_t binom[MAXN + 1][MAXN + 1];
    int members[MAXN];
    uint64_t spans[MAXN + 1][MAXN]; /* spans[size][i] of the node on the path */
    uint64_t pattern[MAXN * WORDS_MAX]; /* in a leaf block of W words, words v * W.. hold
                                           the sets holding v; else 0 */
} Walk;

#define LOW(m) __builtin_ctzll(m)
#define COUNT(m) __builtin_popcountll(m)

static uint64_t neighbours(const Walk *w, uint64_t frontier)
{
    uint64_t reach = 0;
    for (; frontier; frontier &= frontier - 1)
        reach |= w->adj[LOW(frontier)];
    return reach;
}

static void bfs(Walk *w, int s)
{
    uint64_t seen = 1ULL << s, frontier = seen;
    int d = 0;
    memset(w->dist[s], -1, (size_t)w->n);
    w->dist[s][s] = 0;
    w->layers[s][0] = frontier;
    for (;;) {
        frontier = neighbours(w, frontier) & ~seen;
        if (!frontier)
            break;
        d++;
        w->layers[s][d] = frontier;
        seen |= frontier;
        for (uint64_t m = frontier; m; m &= m - 1)
            w->dist[s][LOW(m)] = (int8_t)d;
    }
    w->depth[s] = d + 1;
}

/* The targets clear from u past x_mask: the walk's one membership propagation. */
static uint64_t clear_targets(const Walk *w, int u, uint64_t x_mask, uint64_t targets)
{
    uint64_t allowed = ~x_mask, frontier = 1ULL << u, clear = 0;
    const uint64_t *layers = w->layers[u];
    for (int d = 1; d < w->depth[u]; d++) {
        uint64_t layer = layers[d];
        uint64_t cleared = neighbours(w, frontier) & layer;
        uint64_t reached = targets & layer;
        clear |= reached & cleared;
        targets ^= reached;
        if (!targets)
            break;
        frontier = cleared & allowed;
        if (!frontier)
            break;
    }
    return clear;
}

/*
 * The interior of I(u, v), and the vertices no set holding u and v can take:
 * those alone at their distance from u in I(u, v), and the shadows of u and v
 * on each other. The shadows lie outside I(u, v), so the leaf block, which
 * reads this mask only inside intervals, never sees them. Both masks are
 * empty when v is unreachable from u.
 */
static inline void interval(Walk *w, int u, int v, uint64_t *inner, uint64_t *cuts)
{
    if (!w->known[u][v]) {
        int span = w->dist[u][v];
        uint64_t in = 0, cut = 0;
        for (int d = 1; d < span; d++) {
            uint64_t layer = w->layers[u][d] & w->layers[v][span - d];
            in |= layer;
            if ((layer & (layer - 1)) == 0)
                cut |= layer;
        }
        if (w->n > BLOCK_MAX)
            cut |= w->shadow[u][v] | w->shadow[v][u];
        w->inner[u][v] = w->inner[v][u] = in;
        w->cuts[u][v] = w->cuts[v][u] = cut;
        w->known[u][v] = w->known[v][u] = 1;
    }
    *inner = w->inner[u][v];
    *cuts = w->cuts[u][v];
}

/*
 * Every shadow[u][v]: the descendants of v in u's dominator tree over the BFS
 * layers. A vertex's immediate dominator is the nearest common dominator of
 * its predecessors, found by moving the deeper of two up the tree until they
 * meet. The source dominates every vertex and is in no shadow table row.
 */
static void shadows(Walk *w)
{
    int idom[MAXN];
    for (int u = 0; u < w->n; u++) {
        const uint64_t *layers = w->layers[u];
        const int8_t *dist = w->dist[u];
        uint64_t *shadow = w->shadow[u];
        memset(shadow, 0, sizeof(uint64_t) * (size_t)w->n);
        for (int d = 1; d < w->depth[u]; d++)
            for (uint64_t m = layers[d]; m; m &= m - 1) {
                uint64_t preds = w->adj[LOW(m)] & layers[d - 1];
                int a = LOW(preds);
                for (preds &= preds - 1; preds; preds &= preds - 1)
                    for (int b = LOW(preds); a != b;)
                        if (dist[a] >= dist[b])
                            a = idom[a];
                        else
                            b = idom[b];
                idom[LOW(m)] = a;
            }
        for (int d = w->depth[u] - 1; d > 1; d--)
            for (uint64_t m = layers[d]; m; m &= m - 1)
                if (idom[LOW(m)] != u)
                    shadow[idom[LOW(m)]] |= shadow[LOW(m)] | (m & -m);
    }
}

/* The vertices of x_mask above u. */
#define ABOVE(x_mask, u) ((x_mask) & (~0ULL << (u) << 1))

/*
 * The members plus all of passed form a mutual-visibility set: every vertex of
 * the set but the highest sees each higher one, which covers every pair once.
 * The members plus one candidate are known to pass.
 */
static int closes(Walk *w, uint64_t mask, uint64_t passed)
{
    if ((passed & (passed - 1)) == 0)
        return 1;
    uint64_t x_mask = mask | passed;
    for (uint64_t m = x_mask & ~(1ULL << (63 - __builtin_clzll(x_mask))); m; m &= m - 1) {
        uint64_t above = ABOVE(x_mask, LOW(m));
        w->propagations++;
        if (clear_targets(w, LOW(m), x_mask, above) != above)
            return 0;
    }
    return 1;
}

/*
 * The cliques inside cand over the masks adj, each mask holding its own vertex,
 * each joined with the held vertices and any of the pivots, added by size into
 * counts. Pivoting counts them without listing (Jain and Seshadhri, WSDM
 * 2020): the cliques among the neighbours of u, the vertex seeing most of
 * cand, take u as a free pivot; every other clique holds a non-neighbour of u
 * and is counted with the first one it holds, which then leaves cand.
 */
static void clique_counts(const Walk *w, const uint64_t *adj, uint64_t cand, int held,
                          int pivots, uint64_t *counts)
{
    int p = COUNT(cand), fewest = p, most = -1, u = 0;
    for (uint64_t m = cand; m; m &= m - 1) {
        int seen = COUNT(adj[LOW(m)] & cand);
        if (seen > most) {
            most = seen;
            u = LOW(m);
        }
        if (seen < fewest)
            fewest = seen;
    }
    if (fewest == p) { /* cand is a clique, or empty */
        for (int j = 0; j <= pivots + p; j++)
            counts[held + j] += w->binom[pivots + p][j];
        return;
    }
    clique_counts(w, adj, cand & adj[u] & ~(1ULL << u), held, pivots + 1, counts);
    for (uint64_t m = cand & ~adj[u]; m; m &= m - 1) {
        cand ^= m & -m;
        clique_counts(w, adj, cand & adj[LOW(m)], held + 1, pivots, counts);
    }
}

/*
 * Every set members + S, S a nonempty part of passed, counted by (size,
 * diameter). The diameter of X + S is the largest of diam, the distances from
 * each s in S to the members and the distances within S. So the sets S of
 * diameter at most D are the cliques of H_D, whose vertices are the
 * candidates within D of every member and whose edges join candidates within
 * D of each other; the cliques new at D are the sets of diameter D. Once all
 * of passed is one clique, every set has been counted.
 */
static void count_closed_theta(Walk *w, int size, int diam, uint64_t passed)
{
    int n = w->n, p = COUNT(passed);
    uint64_t previous[MAXN + 1] = {0}, cliques[MAXN + 1];
    for (int d = diam; d < n && !previous[p]; d++) {
        uint64_t vertices = passed;
        for (int i = 0; i < size; i++)
            vertices &= w->balls[d][w->members[i]];
        memset(cliques, 0, sizeof(uint64_t) * (size_t)(p + 1));
        clique_counts(w, w->balls[d], vertices, 0, 0, cliques);
        for (int j = 1; j <= p; j++)
            w->out[(size + j) * n + d] += cliques[j] - previous[j];
        memcpy(previous, cliques, sizeof(uint64_t) * (size_t)(p + 1));
    }
}

/*
 * The sets of a leaf block in which some target is not clear from u, ORed
 * into bad, as a bit slice of W words. clear[x] holds the sets with a
 * shortest u-x path whose interior avoids the set: the union of clear[y] over
 * the predecessors y of x, less the sets holding y, where the source never
 * blocks. Only the vertices of region, the targets and their intervals'
 * interiors, lie on those paths, so no other vertex is visited.
 */
static inline __attribute__((always_inline)) void
blocked(Walk *w, int u, uint64_t targets, uint64_t region, uint64_t *bad, const int W)
{
    uint64_t hit[WORDS_MAX] = {0}, clear[MAXN * WORDS_MAX], previous = 1ULL << u;
    const uint64_t *pattern = w->pattern;
    w->propagations++;
    for (int q = 0; q < W; q++)
        clear[u * W + q] = ~0ULL;
    for (int d = 1; region; d++) {
        uint64_t layer = w->layers[u][d] & region;
        region ^= layer;
        for (uint64_t m = layer; m; m &= m - 1) {
            int x = LOW(m);
            uint64_t reach[WORDS_MAX] = {0};
            for (uint64_t y = w->adj[x] & previous; y; y &= y - 1)
                for (int q = 0; q < W; q++)
                    reach[q] |= clear[LOW(y) * W + q];
            uint64_t aimed = -(targets >> x & 1);
            for (int q = 0; q < W; q++) {
                hit[q] |= pattern[x * W + q] & ~reach[q] & aimed;
                clear[x * W + q] = reach[q] & ~pattern[x * W + q];
            }
        }
        previous = layer;
    }
    for (int q = 0; q < W; q++)
        bad[q] |= hit[q] & pattern[u * W + q];
}

/* Source s of a leaf block must reach v through the interval interior inner. */
static void aim(uint64_t *targets, uint64_t *regions, int s, int v, uint64_t inner)
{
    targets[s] |= 1ULL << v;
    regions[s] |= inner | 1ULL << v;
}

/* at[d] gains the sets in both slices a and b, of diameter at least d; levels holds the d set. */
static inline __attribute__((always_inline)) void
reaches(uint64_t *at, uint64_t *levels, int d, const uint64_t *a, const uint64_t *b, const int W)
{
    if (!(*levels >> d & 1))
        memset(at + d * W, 0, sizeof(uint64_t) * (size_t)W);
    *levels |= 1ULL << d;
    for (int q = 0; q < W; q++)
        at[d * W + q] |= a[q] & b[q];
}

/*
 * Add the block's sets of slice, by size, at diameter d: set s of word q holds
 * popcount(q) + j candidates when s has j bits set.
 */
static inline __attribute__((always_inline)) void
count_slice(Walk *w, int size, int p, int d, const uint64_t *slice, const int W)
{
    uint64_t *out = w->theta ? w->out + (size_t)size * w->n + d : w->out + size;
    size_t stride = w->theta ? (size_t)w->n : 1;
    for (int q = 0; q < W; q++)
        for (int j = !q; j <= p && j <= 6; j++)
            out[(size_t)(j + COUNT(q)) * stride] += (uint64_t)COUNT(slice[q] & SIZES[j]);
}

/* Bit s of word q of a block stands for the set of candidate indices q << 6 | s. */
#define SEED(words, set) ((words)[(set) >> 6] |= 1ULL << ((set) & 63))

/* Add to words every superset, within p candidates, of the sets in it, one candidate at a time. */
static inline __attribute__((always_inline)) void
supersets(uint64_t *words, int p, const int W)
{
    for (int i = 0; i < p && i < 6; i++)
        for (int q = 0; q < W; q++)
            words[q] |= (words[q] & ~PATTERNS[i]) << (1 << i);
    for (int i = 6; i < p; i++)
        for (int q = 0; q < W; q++)
            if (q >> (i - 6) & 1)
                words[q] |= words[q ^ 1 << (i - 6)];
}

/*
 * Every set members + S, S a nonempty part of passed with 2 <= p <= BLOCK_MAX
 * candidates, tested at once in W = 2^(p - 6) words (one for p <= 6): bit s
 * of word q stands for the S holding candidate i < 6 when bit i of s is set
 * and candidate i >= 6 when bit i - 6 of q is. The members and each member
 * plus one candidate are known to pass, so a pair of members can only fail
 * when two candidates lie between them, a member and a candidate when
 * another candidate does, and two candidates when any vertex of the set does
 * (or when they are in different components, at a root of at most BLOCK_MAX
 * vertices). A blocker that cuts its pair fails the sets holding all three
 * at once; any other pair is settled by one propagation per source. A set's
 * diameter is the largest of diam, the farthest member from each of its
 * candidates and the distances between its candidates.
 */
static inline __attribute__((always_inline)) void
block_words(Walk *w, int size, uint64_t mask, int diam, uint64_t passed, const int W)
{
    const int *members = w->members;
    const uint64_t *spans = w->spans[size];
    uint64_t *pattern = w->pattern, inner, cuts, bad[WORDS_MAX] = {0}, good[WORDS_MAX];
    uint64_t full = W > 1 ? ~0ULL : ~0ULL >> (64 - (1 << COUNT(passed))), sets = mask | passed;
    /* Per source, members first: the vertices it must reach, and their intervals. */
    uint64_t targets[MAXN + BLOCK_MAX], regions[MAXN + BLOCK_MAX];
    int cands[BLOCK_MAX], slot[MAXN], p = 0;
    for (uint64_t m = passed; m; m &= m - 1, p++) {
        cands[p] = LOW(m);
        slot[cands[p]] = p;
        for (int q = 0; q < W; q++)
            pattern[cands[p] * W + q] = p < 6 ? PATTERNS[p] & full : -(uint64_t)(q >> (p - 6) & 1);
    }
    for (int i = 0; i < size; i++)
        for (int q = 0; q < W; q++)
            pattern[members[i] * W + q] = full;
    memset(targets, 0, sizeof(uint64_t) * (size_t)(size + p));
    memset(regions, 0, sizeof(uint64_t) * (size_t)(size + p));

    for (int i = 0; i < size; i++) {
        uint64_t inside = spans[i] & passed;
        if ((inside & (inside - 1)) == 0)
            continue;
        for (int j = i + 1; j < size; j++) {
            interval(w, members[i], members[j], &inner, &cuts);
            inside = inner & passed;
            if (inside & (inside - 1))
                aim(targets, regions, i, members[j], inner);
        }
    }
    for (int i = 0; i < size; i++)
        for (int k = 0; k < p; k++) {
            interval(w, members[i], cands[k], &inner, &cuts);
            uint64_t between = inner & passed;
            for (uint64_t c = between & cuts; c; c &= c - 1)
                SEED(bad, 1 << k | 1 << slot[LOW(c)]);
            if (between & ~cuts)
                aim(targets, regions, i, cands[k], inner);
        }
    for (int k = 0; k < p; k++)
        for (int l = k + 1; l < p; l++) {
            int pair = 1 << k | 1 << l;
            interval(w, cands[k], cands[l], &inner, &cuts);
            uint64_t between = inner & sets;
            if (w->dist[cands[k]][cands[l]] < 0 || (between & cuts & mask))
                SEED(bad, pair);
            for (uint64_t c = between & cuts & passed; c; c &= c - 1)
                SEED(bad, pair | 1 << slot[LOW(c)]);
            if (between & ~cuts)
                aim(targets, regions, size + k, cands[l], inner);
        }
    supersets(bad, p, W);
    for (int i = 0; i < size + p; i++)
        if (targets[i])
            blocked(w, i < size ? members[i] : cands[i - size], targets[i], regions[i], bad, W);

    for (int q = 0; q < W; q++)
        good[q] = full & ~bad[q];
    good[0] &= ~1ULL; /* bit 0 of word 0, the members alone, is the node */
    if (w->theta) {
        uint64_t at[MAXN * WORDS_MAX], levels = 0, farther[WORDS_MAX] = {0}, slice[WORDS_MAX];
        for (int k = 0; k < p; k++) {
            int v = cands[k], e = diam;
            const uint64_t *pv = pattern + v * W;
            for (int i = 0; i < size; i++)
                if (w->dist[v][members[i]] > e)
                    e = w->dist[v][members[i]];
            if (e > diam)
                reaches(at, &levels, e, pv, pv, W);
            for (int l = 0; l < k; l++)
                if (w->dist[v][cands[l]] > diam)
                    reaches(at, &levels, w->dist[v][cands[l]], pv, pattern + cands[l] * W, W);
        }
        while (levels) {
            int d = 63 - __builtin_clzll(levels);
            levels ^= 1ULL << d;
            for (int q = 0; q < W; q++) {
                slice[q] = good[q] & at[d * W + q] & ~farther[q];
                farther[q] |= at[d * W + q];
            }
            count_slice(w, size, p, d, slice, W);
        }
        for (int q = 0; q < W; q++)
            good[q] &= ~farther[q];
    }
    count_slice(w, size, p, diam, good, W);
    for (int i = 0; i < size; i++)
        memset(pattern + members[i] * W, 0, sizeof(uint64_t) * (size_t)W);
    for (int k = 0; k < p; k++)
        memset(pattern + cands[k] * W, 0, sizeof(uint64_t) * (size_t)W);
}

/* One leaf block, its body specialised for each word count. */
static void leaf_block(Walk *w, int size, uint64_t mask, int diam, uint64_t passed)
{
    switch (COUNT(passed)) {
    case 9:
        block_words(w, size, mask, diam, passed, 8);
        break;
    case 8:
        block_words(w, size, mask, diam, passed, 4);
        break;
    case 7:
        block_words(w, size, mask, diam, passed, 2);
        break;
    default:
        block_words(w, size, mask, diam, passed, 1);
    }
}

/* One node of the tree: members[0..size) with their spans[size], then its subtree. */
static void visit(Walk *w, int size, uint64_t mask, int diam, uint64_t cand)
{
    w->nodes++;
    w->out[w->theta ? size * w->n + diam : size]++;
    if (!cand)
        return;
    const int *members = w->members;
    const uint64_t *spans = w->spans[size];
    uint64_t passed = cand;
    int offered = COUNT(cand);
    if (size)
        w->hidden -= (uint64_t)offered; /* see the children's loop */
    /* 1. Every member must see the candidate. */
    if (offered > size) {
        for (int i = 0; i < size && passed; i++) {
            w->propagations++;
            passed &= clear_targets(w, members[i], mask, passed);
        }
    } else {
        for (uint64_t m = cand; m; m &= m - 1) {
            w->propagations++;
            if (clear_targets(w, LOW(m), mask, mask) != mask)
                passed ^= m & -m;
        }
    }
    /* 2. A candidate can only block a pair of members that it lies between, and
       then it lies in the span of the lower one: test each pair from there. */
    for (int i = 0; i < size; i++) {
        uint64_t above = ABOVE(mask, members[i]);
        for (uint64_t inside = passed & spans[i]; inside; inside &= inside - 1) {
            uint64_t vbit = inside & -inside;
            w->propagations++;
            if (clear_targets(w, members[i], mask | vbit, above) != above)
                passed ^= vbit;
        }
    }
    if (!passed)
        return;
    int p = COUNT(passed);
    if (p >= 2 && p <= BLOCK_MAX) {
        w->blocks++;
        leaf_block(w, size, mask, diam, passed);
        return;
    }

    if (closes(w, mask, passed)) {
        w->closed++;
        if (w->theta) {
            count_closed_theta(w, size, diam, passed);
        } else {
            for (int j = 1; j <= p; j++)
                w->out[size + j] += w->binom[p][j];
        }
        return;
    }

    /* The children are offered p(p - 1) / 2 candidates in all; each takes off
       what it keeps, so hidden gains what the filters dropped with no
       popcount per child (in the portable build a libgcc call, 1-3% of a walk). */
    w->hidden += (uint64_t)(p * (p - 1) / 2);
    for (uint64_t m = passed; m; m &= m - 1) {
        int v = LOW(m);
        uint64_t vbit = 1ULL << v;
        uint64_t rest = m & (m - 1);
        int child_diam = diam;
        if (w->theta)
            for (int i = 0; i < size; i++)
                if (w->dist[v][members[i]] > child_diam)
                    child_diam = w->dist[v][members[i]];
        if (rest) {
            /* A vertex on every shortest path between two members, or one
               with a member on every shortest path to the other, can never
               join them, so it leaves the candidates for good. */
            uint64_t *grown = w->spans[size + 1], inner, cuts;
            for (int i = 0; i < size; i++) {
                interval(w, members[i], v, &inner, &cuts);
                grown[i] = spans[i] | inner;
                rest &= ~cuts;
            }
            grown[size] = 0;
        }
        w->members[size] = v;
        visit(w, size + 1, mask | vbit, child_diam, rest);
    }
}

/*
 * v's neighbours are pairwise adjacent, as when it has at most one. Then each
 * neighbour with the same closed neighbourhood is simplicial too and joins
 * *known, so a clique of n vertices costs n steps, not n^2.
 */
static int simplicial(const uint64_t *adj, int v, uint64_t *known)
{
    if (*known >> v & 1)
        return 1;
    for (uint64_t m = adj[v]; m; m &= m - 1)
        if ((adj[v] & ~adj[LOW(m)]) != (m & -m))
            return 0;
    for (uint64_t m = adj[v]; m; m &= m - 1)
        if ((adj[LOW(m)] | (m & -m)) == (adj[v] | 1ULL << v))
            *known |= m & -m;
    return 1;
}

/*
 * The masks of adj under the walk's vertex order (see the header): vertex
 * order[i] becomes vertex i, in w->relabelled, or adj itself when the order
 * is the identity.
 */
static const uint64_t *relabel(Walk *w, int n, const uint64_t *adj)
{
    int order[MAXN], degree[MAXN], key[MAXN], label[MAXN], head = 0, tail = 0, moved = 0;
    uint64_t unseen = n == MAXN ? ~0ULL : (1ULL << n) - 1, known = 0;
    for (int v = 0; v < n; v++) {
        degree[v] = COUNT(adj[v]);
        key[v] = simplicial(adj, v, &known) * (MAXN + 1) + MAXN - degree[v];
    }
    while (unseen) {
        int s = LOW(unseen);
        for (uint64_t m = unseen; m; m &= m - 1)
            if (degree[LOW(m)] < degree[s])
                s = LOW(m);
        order[tail++] = s;
        unseen ^= 1ULL << s;
        while (head < tail) {
            int u = order[head++];
            for (uint64_t m = adj[u] & unseen; m; m &= m - 1)
                order[tail++] = LOW(m);
            unseen &= ~adj[u];
        }
    }
    for (int i = 1; i < n; i++) { /* insertion sort by key, which keeps ties in BFS order */
        int v = order[i], j = i;
        for (; j > 0 && key[order[j - 1]] > key[v]; j--)
            order[j] = order[j - 1];
        order[j] = v;
    }
    for (int i = 0; i < n; i++) {
        label[order[i]] = i;
        moved |= order[i] != i;
    }
    if (!moved)
        return adj;
    for (int i = 0; i < n; i++) {
        uint64_t mask = 0;
        for (uint64_t m = adj[order[i]]; m; m &= m - 1)
            mask |= 1ULL << label[LOW(m)];
        w->relabelled[i] = mask;
    }
    return w->relabelled;
}

/*
 * Count the sets of one graph into w->out; the caller set the rest of w. The
 * counts do not depend on the labels, so a graph of more than BLOCK_MAX
 * vertices is walked under relabel()'s order and nothing is mapped back; a
 * smaller one is a leaf block at the root, or closes, whatever its order.
 */
static void walk_graph(Walk *w, int n, const uint64_t *adj)
{
    w->n = n;
    w->adj = n > BLOCK_MAX ? relabel(w, n, adj) : adj;
    for (int u = 0; u < n; u++) {
        bfs(w, u);
        memset(w->known[u], 0, (size_t)n);
    }
    if (w->theta)
        for (int d = 0; d < n; d++)
            for (int v = 0; v < n; v++)
                w->balls[d][v] = (d ? w->balls[d - 1][v] : 0)
                                 | (d < w->depth[v] ? w->layers[v][d] : 0);
    if (n > BLOCK_MAX) /* else the root is a leaf block, or closes, and makes no child */
        shadows(w);
    visit(w, 0, 0, 0, n == MAXN ? ~0ULL : (1ULL << n) - 1);
}

/* A walk with zeroed counters and leaf-block patterns and the binomials up to top; NULL when
   memory runs out. */
static Walk *new_walk(int theta, int top)
{
    Walk *w = malloc(sizeof *w);
    if (!w)
        return NULL;
    w->theta = theta;
    w->nodes = w->closed = w->propagations = w->blocks = w->hidden = 0;
    memset(w->pattern, 0, sizeof w->pattern);
    for (int i = 0; i <= top; i++) {
        w->binom[i][0] = w->binom[i][i] = 1;
        for (int j = 1; j < i; j++)
            w->binom[i][j] = w->binom[i - 1][j - 1] + w->binom[i - 1][j];
    }
    return w;
}

/* Hand the walk's counters to the caller and free it. */
static void end_walk(Walk *w, uint64_t *counters)
{
    counters[0] = w->nodes;
    counters[1] = w->closed;
    counters[2] = w->propagations;
    counters[3] = w->blocks;
    counters[4] = w->hidden;
    free(w);
}

/* The largest k in 1..n with a nonzero entry in row k of out, rows of width entries; else 0. */
static int largest_size(const uint64_t *out, int n, int width)
{
    for (int k = n; k > 0; k--)
        for (int d = 0; d < width; d++)
            if (out[k * width + d])
                return k;
    return 0;
}

int visipoly_walk(int n, const uint64_t *adj, int theta, uint64_t *out, uint64_t *counters)
{
    if (n < 0 || n > MAXN)
        return -1;
    Walk *w = new_walk(theta, n);
    if (!w)
        return -1;
    w->out = out;
    walk_graph(w, n, adj);
    end_walk(w, counters);
    return largest_size(out, n, theta && n ? n : 1);
}

/*
 * The order of a short-form graph6 record of length bytes, its symmetric masks
 * written to adj; -1, with adj untouched, unless the record is one in full.
 */
static int decode_graph6(const unsigned char *s, long length, uint64_t *adj)
{
    if (length < 1 || s[0] < 63 || s[0] > 63 + SHORT_MAX)
        return -1;
    int n = s[0] - 63, bits = n * (n - 1) / 2;
    if (length != 1 + (bits + 5) / 6)
        return -1;
    for (int i = 1; i < length; i++)
        if (s[i] < 63 || s[i] > 126)
            return -1;
    if (bits % 6 && ((s[length - 1] - 63) & ((1 << (6 - bits % 6)) - 1)))
        return -1;
    memset(adj, 0, sizeof(uint64_t) * (size_t)n);
    /* Bit k of the adjacency section, most significant bit of each byte first, is x(i, j) for
       the k-th pair i < j in column-major order. */
    for (int j = 1, k = 0; j < n; j++)
        for (int i = 0; i < j; i++, k++)
            if ((s[1 + k / 6] - 63) >> (5 - k % 6) & 1) {
                adj[i] |= 1ULL << j;
                adj[j] |= 1ULL << i;
            }
    return n;
}

/* Write the key of counts[0..n], trailing zeros trimmed, and a newline at key; return its length. */
static long write_key(char *key, const uint64_t *counts, int n)
{
    while (n >= 0 && !counts[n])
        n--;
    char *at = key, digits[20];
    *at++ = '[';
    for (int k = 0; k <= n; k++) {
        int len = 0;
        uint64_t c = counts[k];
        do
            digits[len++] = (char)('0' + c % 10);
        while (c /= 10);
        if (k)
            *at++ = ',';
        while (len)
            *at++ = digits[--len];
    }
    *at++ = ']';
    *at++ = '\n';
    return at - key;
}

long visipoly_walk_graph6(const char *text, long length, char *keys, long capacity,
                          uint64_t *counters)
{
    Walk *w = new_walk(0, SHORT_MAX);
    if (!w)
        return -1;
    uint64_t adj[SHORT_MAX], counts[SHORT_MAX + 1];
    const char *end = text + length, *stop;
    long used = 0;
    w->out = counts;
    for (const char *s = text;; s = stop + 1) {
        stop = memchr(s, '\n', (size_t)(end - s));
        if (!stop)
            stop = end;
        int n = decode_graph6((const unsigned char *)s, stop - s, adj);
        if (capacity - used < (n < 0 ? 1 : KEY_MAX(n))) {
            used = -1;
            break;
        }
        if (n < 0) {
            keys[used++] = '\n';
        } else {
            memset(counts, 0, sizeof counts);
            walk_graph(w, n, adj);
            used += write_key(keys + used, counts, n);
        }
        if (stop == end)
            break;
    }
    end_walk(w, counters);
    return used;
}
