/* Compiled kernels of treeprofiles, loaded through ctypes by
 * treeprofiles._native.
 *
 * Tree building.  tp_kruskal merges adjacent pixel pairs into the records
 * of a max-, min- or alpha-tree (hierarchies.kruskal).  tp_counting_sort is
 * every sort of tree building (hierarchies.counting_sort): the edge orders,
 * the component trees' node numbering and the tree of shapes' pixel and
 * shape orders, all with small integer keys.  The tree of shapes
 * (inclusion) reads its side trees' boxes, first pixels and frame contact
 * off tp_attributes over pixel ids, fills their holed nodes in one
 * tp_saturate call, a row-run flood, and paints its shapes largest first in
 * tp_paint_shapes.
 *
 * Tree traversal.  tp_accumulate folds per-node values child to parent and
 * tp_propagate parent to child (hierarchies.accumulate and propagate), each
 * in one sweep over the node ids of a root-first parent array.  The same
 * sweeps build a tree's attribute table in one call from its pixel-to-node
 * map (tp_attributes, for attributes.compute_attributes) and write a filter
 * ladder's columns (tp_ladder, for profiles._profile): every owner under k
 * retain masks in one root-first sweep, then each pixel's table values
 * copied into the caller's matrix.  Integer sums wrap in uint64 as numpy's
 * int64 does, and sums, minima, maxima and copies are exact in any order,
 * so both give the bytes of the numpy scatters, folds and gathers.
 *
 * Random forest (classifier).  tp_grow_tree grows one CART tree: it draws
 * the bootstrap resample, then grows nodes in preorder (left subtree
 * first), drawing each split node's candidate features with a partial
 * Fisher-Yates shuffle and searching them for the best Gini split.
 * tp_forest_votes sums the leaf probabilities of the trees over a batch of
 * rows, in tree order, until a row's vote is settled.  tp_best_split and
 * tp_xorshift_fill expose the node search and the generator to the tests.
 *
 * A node's search skips a candidate with one value on the whole training
 * set before any gather, then gathers each other candidate's ranks over the
 * node's samples and skips a candidate constant there.  When the node holds
 * more than DENSE_MIN samples whose ranks span at most DENSE_SPAN ranks per
 * sample, it counts the samples per (rank, class) and walks the ranks
 * upward, with no sort; otherwise it sorts (rank, class) keys.  Either way
 * it scores the boundaries between consecutive distinct ranks in ascending
 * order with the same left class counts, so which way a node goes changes
 * no float and no model byte.
 *
 * A settled row (see settled) stops voting: its lead can no longer be
 * overturned, so its label is the full sum's.  Rows not settled sum every
 * tree in tree order, so the labels and the smaller-id tie rule are
 * unchanged.
 *
 * The forest's floating-point operations are the numpy reference's, one for
 * one: class counts are exact integers, each Gini sum of squares follows
 * numpy's pairwise summation, and nothing may be fused into a multiply-add,
 * so build with -ffp-contract=off.
 *
 * Training data is feature-major: rank[f * n + s] is the dense rank of
 * sample s's value of feature f among the distinct values of feature f, and
 * level[f * n + r] the value of rank r.  The search and the routing of
 * samples read ranks only; levels give the thresholds.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TP_CAPACITY (-1)  /* a tree would outgrow its node arrays */
#define TP_NO_MEMORY (-2)
#define TP_BAD_INDEX (-3) /* an index argument out of range */

/* ---- Tree building ---- */

static int64_t find_root(int64_t *root, int64_t p)
{
    while (p != root[p]) {
        root[p] = root[root[p]];  /* path halving */
        p = root[p];
    }
    return p;
}

/* Merges the edges (a[e], b[e]) at weight[e] for e = order[0], ...,
 * order[m - 1] (each below n_edges) over n pixel records at leaf_level.
 * An edge joining two components aliases their top records when both sit
 * at its weight, lets a top at its weight absorb the other, and otherwise
 * makes a new record at its weight above both.  A live top is never
 * aliased, so tops need no find; pixel roots are joined by size with path
 * halving.  At most n - 1 joins make at most n - 1 new records, so parent,
 * level and alias hold 2n - 1 records; new records are their own parent
 * and alias.  Each record's alias is resolved to the record it ends up in.
 * Returns the record count, TP_BAD_INDEX or TP_NO_MEMORY. */
int64_t tp_kruskal(const int64_t *a, const int64_t *b, const double *weight,
                   int64_t n_edges, const int64_t *order, int64_t m,
                   const double *leaf_level, int64_t n, int64_t *parent,
                   double *level, int64_t *alias)
{
    int64_t *root = malloc((size_t)(3 * n + 1) * sizeof *root);
    if (!root)
        return TP_NO_MEMORY;
    int64_t *top = root + n, *size = top + n;
    for (int64_t i = 0; i < n; i++) {
        root[i] = top[i] = parent[i] = alias[i] = i;
        size[i] = 1;
        level[i] = leaf_level[i];
    }
    int64_t count = n;
    for (int64_t i = 0; i < m; i++) {
        const int64_t e = order[i];
        if (e < 0 || e >= n_edges || a[e] < 0 || a[e] >= n || b[e] < 0 ||
            b[e] >= n) {
            count = TP_BAD_INDEX;
            break;
        }
        int64_t p = find_root(root, a[e]), q = find_root(root, b[e]);
        if (p == q)
            continue;
        const double w = weight[e];
        const int64_t ta = top[p], tb = top[q];
        int64_t survivor;
        if (level[ta] == w) {
            if (level[tb] == w)
                alias[tb] = ta;
            else
                parent[tb] = ta;
            survivor = ta;
        } else if (level[tb] == w) {
            parent[ta] = survivor = tb;
        } else {
            survivor = count++;
            level[survivor] = w;
            parent[survivor] = alias[survivor] = survivor;
            parent[ta] = parent[tb] = survivor;
        }
        if (size[p] < size[q]) {
            const int64_t t = p;
            p = q;
            q = t;
        }
        root[q] = p;
        size[p] += size[q];
        top[p] = survivor;
    }
    /* an aliased record was a live top aliased to another, so alias chains
     * have no cycle; each record's alias becomes its chain's end */
    for (int64_t i = 0; i < count; i++) {
        int64_t end = alias[i];
        while (alias[end] != end)
            end = alias[end];
        for (int64_t j = i; alias[j] != end;) {
            const int64_t next = alias[j];
            alias[j] = end;
            j = next;
        }
    }
    free(root);
    return count;
}

/* Stable counting sort: out[0, m) is ids[0, m) ordered by key[ids[j]],
 * ascending, with equal keys left in their order in ids.  Every id must lie
 * in [0, n) and every key it reads in [0, range).  Returns 0; TP_BAD_INDEX,
 * before any write, for an id or key out of range; or TP_NO_MEMORY. */
int32_t tp_counting_sort(const int64_t *key, int64_t n, const int64_t *ids,
                         int64_t m, int64_t range, int64_t *out)
{
    if (range < 0)
        return TP_BAD_INDEX;
    for (int64_t j = 0; j < m; j++)
        if (ids[j] < 0 || ids[j] >= n || key[ids[j]] < 0 ||
            key[ids[j]] >= range)
            return TP_BAD_INDEX;
    int64_t *start = calloc((size_t)range + 1, sizeof *start);
    if (!start)
        return TP_NO_MEMORY;
    for (int64_t j = 0; j < m; j++)
        start[key[ids[j]] + 1]++;
    for (int64_t k = 0; k < range; k++)
        start[k + 1] += start[k];
    for (int64_t j = 0; j < m; j++)
        out[start[key[ids[j]]]++] = ids[j];
    free(start);
    return 0;
}

enum { OPEN, WALL, REACHED };

/* 0x80 in byte k for each k < valid (at most 8) whose cell[k] is OPEN */
static uint64_t open_cells(const uint8_t *cell, int64_t valid)
{
    const uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
    uint64_t v = 0;
    for (int k = 0; k < 8; k++)
        v |= (uint64_t)cell[k] << (8 * k);
    const uint64_t open = ~(((v & low7) + low7) | v | low7);
    return valid < 8 ? open & (((uint64_t)1 << (8 * valid)) - 1) : open;
}

/* Saturates n_nodes pixel sets of a width x height grid: set i is the pixel
 * ids pix_order[lo[i]], ..., pix_order[hi[i] - 1], inside the box
 * box[4i .. 4i + 3] = (y0, x0, y1, x1), corners included.  Its saturation
 * is the set plus its holes: every box cell that an 8-connected flood of
 * the background from the one-pixel frame around the box does not reach.
 * The flood runs on a (bh + 4) x (bw + 4) grid whose outer ring is wall,
 * so no neighbour needs a bounds check.  It fills row runs: a popped seed
 * grows left and right over open cells into a run, and the rows above and
 * below are scanned one cell past each end of the run (the diagonal
 * neighbours) eight cells at a time, pushing the first cell of every
 * stretch of open cells there.
 * A cell is marked reached when it is pushed or filled, and only open cells
 * are pushed, so each cell is pushed at most once and the seed stack never
 * holds more than the grid's cell count.
 * Set i's saturation is written to out[offsets[i]], ...,
 * out[offsets[i + 1] - 1] as ascending row-major pixel ids; n_out must be
 * at least the summed box area.  Returns 0; TP_BAD_INDEX, before any
 * write, for a run outside pix_order, a box outside the grid or a pixel
 * outside its box; TP_CAPACITY when n_out is too small; or TP_NO_MEMORY. */
int32_t tp_saturate(const int64_t *pix_order, int64_t n_pix,
                    const int64_t *lo, const int64_t *hi, const int64_t *box,
                    int64_t n_nodes, int64_t width, int64_t height,
                    int64_t *out, int64_t n_out, int64_t *offsets)
{
    int64_t cells = 0, grid_cells = 0;
    for (int64_t i = 0; i < n_nodes; i++) {
        const int64_t *b = box + 4 * i;
        if (lo[i] < 0 || hi[i] < lo[i] || hi[i] > n_pix || b[0] < 0 ||
            b[2] < b[0] || b[2] >= height || b[1] < 0 || b[3] < b[1] ||
            b[3] >= width)
            return TP_BAD_INDEX;
        for (int64_t j = lo[i]; j < hi[i]; j++) {
            const int64_t p = pix_order[j];
            if (p < 0 || p / width < b[0] || p / width > b[2] ||
                p % width < b[1] || p % width > b[3])
                return TP_BAD_INDEX;
        }
        const int64_t bh = b[2] - b[0] + 1, bw = b[3] - b[1] + 1;
        cells += bh * bw;
        if ((bh + 4) * (bw + 4) > grid_cells)
            grid_cells = (bh + 4) * (bw + 4);
    }
    if (cells > n_out)
        return TP_CAPACITY;
    /* a row scan reads up to 7 cells past the grid */
    uint8_t *grid = calloc((size_t)grid_cells + 8, 1);
    int64_t *stack = malloc((size_t)grid_cells * sizeof *stack + 1);
    if (!grid || !stack) {
        free(grid);
        free(stack);
        return TP_NO_MEMORY;
    }
    int64_t count = 0;
    offsets[0] = 0;
    for (int64_t i = 0; i < n_nodes; i++) {
        const int64_t y0 = box[4 * i], x0 = box[4 * i + 1];
        const int64_t bh = box[4 * i + 2] - y0 + 1;
        const int64_t bw = box[4 * i + 3] - x0 + 1, gw = bw + 4;
        memset(grid, WALL, (size_t)((bh + 4) * gw));
        for (int64_t y = 1; y < bh + 3; y++)
            memset(grid + y * gw + 1, OPEN, (size_t)(bw + 2));
        for (int64_t j = lo[i]; j < hi[i]; j++) {
            const int64_t p = pix_order[j];
            grid[(p / width - y0 + 2) * gw + p % width - x0 + 2] = WALL;
        }
        int64_t depth = 0;
        grid[gw + 1] = REACHED;
        stack[depth++] = gw + 1;
        while (depth) {
            const int64_t seed = stack[--depth];
            int64_t left = seed, right = seed;
            while (grid[left - 1] == OPEN)
                grid[--left] = REACHED;
            while (grid[right + 1] == OPEN)
                grid[++right] = REACHED;
            for (int64_t up = -gw; up <= gw; up += 2 * gw) {
                uint8_t *next = grid + up;
                uint64_t before = 0;  /* 0x80: the cell before c is open */
                for (int64_t c = left - 1; c <= right + 1; c += 8) {
                    const uint64_t open = open_cells(next + c, right + 2 - c);
                    uint64_t first = open & ~(open << 8 | before);
                    before = open >> 56;
                    for (; first; first &= first - 1) {
                        const int64_t at = c + __builtin_ctzll(first) / 8;
                        next[at] = REACHED;
                        stack[depth++] = at + up;
                    }
                }
            }
        }
        /* every cell is written and the unreached ones kept: count never
         * passes the cells swept so far, which n_out covers */
        for (int64_t y = 0; y < bh; y++)
            for (int64_t x = 0; x < bw; x++) {
                out[count] = (y0 + y) * width + x0 + x;
                count += grid[(y + 2) * gw + x + 2] != REACHED;
            }
        offsets[i + 1] = count;
    }
    free(grid);
    free(stack);
    return 0;
}

/* Paints shapes s = 0, ..., n_shapes - 1 in turn onto label (n_label
 * pixels, all 0 = the root beforehand): shape s is the pixel ids
 * pixels[start[s]], ..., pixels[end[s] - 1] of the n_pixels concatenated
 * ones, and gets label s + 1.  Before painting, parent[s + 1] is set to the
 * label at first[s]; parent[0] = 0.  Returns 0, or TP_BAD_INDEX for a run
 * or pixel id out of range. */
int32_t tp_paint_shapes(const int64_t *pixels, int64_t n_pixels,
                        const int64_t *start, const int64_t *end,
                        const int64_t *first, int64_t n_shapes,
                        int32_t *label, int64_t n_label, int32_t *parent)
{
    parent[0] = 0;
    for (int64_t s = 0; s < n_shapes; s++) {
        if (start[s] < 0 || end[s] < start[s] || end[s] > n_pixels ||
            first[s] < 0 || first[s] >= n_label)
            return TP_BAD_INDEX;
        parent[s + 1] = label[first[s]];
        for (int64_t j = start[s]; j < end[s]; j++) {
            if (pixels[j] < 0 || pixels[j] >= n_label)
                return TP_BAD_INDEX;
            label[pixels[j]] = (int32_t)(s + 1);
        }
    }
    return 0;
}

/* ---- Tree traversal ---- */

enum { TP_ADD, TP_MIN, TP_MAX };

/* to[j] = op(to[j], from[j]) for j < k; the sum wraps like numpy's */
static void fold(int64_t *to, const int64_t *from, int64_t k, int32_t op)
{
    for (int64_t j = 0; j < k; j++) {
        const int64_t a = to[j], b = from[j];
        if (op == TP_ADD)
            to[j] = (int64_t)((uint64_t)a + (uint64_t)b);
        else if (op == TP_MIN)
            to[j] = b < a ? b : a;
        else
            to[j] = b > a ? b : a;
    }
}

/* Row i of values (k entries, row-major) folds into row parent[i] for
 * i = n - 1, ..., 1: afterwards each row holds op over its node's subtree.
 * Returns 0; or TP_BAD_INDEX, before any write out of bounds, when
 * parent[0] != 0 or some node i has parent[i] outside [0, i). */
int32_t tp_accumulate(const int64_t *parent, int64_t n, int64_t *values,
                      int64_t k, int32_t op)
{
    if (n > 0 && parent[0] != 0)
        return TP_BAD_INDEX;
    for (int64_t i = n - 1; i > 0; i--) {
        if (parent[i] < 0 || parent[i] >= i)
            return TP_BAD_INDEX;
        fold(values + parent[i] * k, values + i * k, k, op);
    }
    return 0;
}

/* Row parent[i] folds into row i for i = 1, ..., n - 1: afterwards each row
 * holds op over its node's root path.  Same checks as tp_accumulate. */
int32_t tp_propagate(const int64_t *parent, int64_t n, int64_t *values,
                     int64_t k, int32_t op)
{
    if (n > 0 && parent[0] != 0)
        return TP_BAD_INDEX;
    for (int64_t i = 1; i < n; i++) {
        if (parent[i] < 0 || parent[i] >= i)
            return TP_BAD_INDEX;
        fold(values + i * k, values + parent[i] * k, k, op);
    }
    return 0;
}

/* 1 when parent[0] == 0 and parent[i] is in [0, i) for every other node */
static int root_first(const int64_t *parent, int64_t n)
{
    if (n < 1 || parent[0] != 0)
        return 0;
    for (int64_t i = 1; i < n; i++)
        if (parent[i] < 0 || parent[i] >= i)
            return 0;
    return 1;
}

/* rows of an attribute table: 7 sums, then the minimum and the maximum of
 * the gray values */
enum { A_AREA, A_SUM_X, A_SUM_Y, A_SUM_XX, A_SUM_YY, A_GRAY_SUM, A_GRAY_SQ,
       A_GRAY_MIN, A_GRAY_MAX, A_ROWS };

/* *to += v, wrapping like numpy's int64 */
static void add(int64_t *to, uint64_t v)
{
    *to = (int64_t)((uint64_t)*to + v);
}

/* The attribute table of an n-node tree over a width-wide image of gray
 * values gray[0, n_pixels), whose pixel p sits directly in node
 * pixel_node[p].  Every node starts from the identities (0 for the sums,
 * INT64_MAX for the minima, -INT64_MAX for the maxima), each pixel is added
 * into its node, then every node i = n - 1, ..., 1 folds into parent[i].
 * So row j of out (A_ROWS rows of n int64, row-major) holds, per node, the
 * area, the sums of x, y, x*x, y*y, g and g*g (wrapping like numpy's
 * int64) and the minimum and maximum of g over its whole subtree, and row
 * i of bbox (n rows of 4 int64) node i's xmin, ymin, xmax and ymax.
 * Returns 0; or TP_BAD_INDEX, before any write, for a parent array that is
 * not root-first or a pixel_node entry outside [0, n). */
int32_t tp_attributes(const int64_t *parent, int64_t n,
                      const int32_t *pixel_node, const int64_t *gray,
                      int64_t n_pixels, int64_t width, int64_t *out,
                      int64_t *bbox)
{
    if (!root_first(parent, n) || width < 1)
        return TP_BAD_INDEX;
    for (int64_t p = 0; p < n_pixels; p++)
        if (pixel_node[p] < 0 || pixel_node[p] >= n)
            return TP_BAD_INDEX;
    int64_t *row[A_ROWS];
    for (int r = 0; r < A_ROWS; r++)
        row[r] = out + r * n;
    memset(out, 0, (size_t)(A_GRAY_MIN * n) * sizeof *out);
    for (int64_t i = 0; i < n; i++) {
        row[A_GRAY_MIN][i] = bbox[4 * i] = bbox[4 * i + 1] = INT64_MAX;
        row[A_GRAY_MAX][i] = bbox[4 * i + 2] = bbox[4 * i + 3] = -INT64_MAX;
    }
    for (int64_t p = 0, x = 0, y = 0; p < n_pixels; p++) {
        const int64_t i = pixel_node[p], g = gray[p];
        const uint64_t ux = (uint64_t)x, uy = (uint64_t)y, ug = (uint64_t)g;
        add(row[A_AREA] + i, 1);
        add(row[A_SUM_X] + i, ux);
        add(row[A_SUM_Y] + i, uy);
        add(row[A_SUM_XX] + i, ux * ux);
        add(row[A_SUM_YY] + i, uy * uy);
        add(row[A_GRAY_SUM] + i, ug);
        add(row[A_GRAY_SQ] + i, ug * ug);
        int64_t *min = row[A_GRAY_MIN] + i, *max = row[A_GRAY_MAX] + i,
                *box = bbox + 4 * i;
        *min = g < *min ? g : *min;
        *max = g > *max ? g : *max;
        box[0] = x < box[0] ? x : box[0];
        box[1] = y < box[1] ? y : box[1];
        box[2] = x > box[2] ? x : box[2];
        box[3] = y > box[3] ? y : box[3];
        if (++x == width) {
            x = 0;
            y++;
        }
    }
    for (int64_t i = n - 1; i > 0; i--) {
        const int64_t p = parent[i];
        for (int r = 0; r < A_GRAY_MIN; r++)
            add(row[r] + p, (uint64_t)row[r][i]);
        int64_t *lo[3] = {row[A_GRAY_MIN], bbox, bbox + 1};
        int64_t *hi[3] = {row[A_GRAY_MAX], bbox + 2, bbox + 3};
        const int64_t step[3] = {1, 4, 4};
        for (int k = 0; k < 3; k++) {
            const int64_t a = step[k] * i, b = step[k] * p;
            lo[k][b] = lo[k][a] < lo[k][b] ? lo[k][a] : lo[k][b];
            hi[k][b] = hi[k][a] > hi[k][b] ? hi[k][a] : hi[k][b];
        }
    }
    return 0;
}

/* Writes a filter ladder of an n-node tree into the columns of out, a
 * matrix of n_pixels rows of `stride` doubles with dim columns in use.
 * masks holds k retain masks of n bytes each, mask t at masks[t * n].  One
 * root-first sweep gives every node i its owner under each mask: i itself
 * when retained, else its parent's owner.  Pixel p then takes, for each of
 * the f per-node tables (table j at tables[j * n]) and each mask t, the
 * table's value at the owner of pixel_node[p] under mask t, written to
 * column cols[j * k + t] of row p.  Returns 0; TP_BAD_INDEX, before any
 * write, for a parent array that is not root-first, a mask whose root is
 * not retained, a pixel_node entry outside [0, n) or a column outside
 * [0, dim) or a stride below dim; or TP_NO_MEMORY. */
int32_t tp_ladder(const int64_t *parent, int64_t n, const uint8_t *masks,
                  int64_t k, const int32_t *pixel_node, int64_t n_pixels,
                  const double *tables, int64_t f, const int64_t *cols,
                  double *out, int64_t stride, int64_t dim)
{
    if (!root_first(parent, n) || n > INT32_MAX || stride < dim)
        return TP_BAD_INDEX;
    for (int64_t t = 0; t < k; t++)
        if (!masks[t * n])
            return TP_BAD_INDEX;
    for (int64_t p = 0; p < n_pixels; p++)
        if (pixel_node[p] < 0 || pixel_node[p] >= n)
            return TP_BAD_INDEX;
    for (int64_t c = 0; c < f * k; c++)
        if (cols[c] < 0 || cols[c] >= dim)
            return TP_BAD_INDEX;
    int32_t *owner = malloc((size_t)(n * k) * sizeof *owner + 1);
    if (!owner)
        return TP_NO_MEMORY;
    for (int64_t i = 0; i < n; i++) {
        const int32_t *up = owner + parent[i] * k;  /* the root's own row */
        int32_t *own = owner + i * k;
        for (int64_t t = 0; t < k; t++)
            own[t] = masks[t * n + i] ? (int32_t)i : up[t];
    }
    for (int64_t p = 0; p < n_pixels; p++) {
        const int32_t *own = owner + (int64_t)pixel_node[p] * k;
        double *row = out + p * stride;
        for (int64_t j = 0; j < f; j++) {
            const double *table = tables + j * n;
            const int64_t *col = cols + j * k;
            for (int64_t t = 0; t < k; t++)
                row[col[t]] = table[own[t]];
        }
    }
    free(owner);
    return 0;
}

/* ---- Random forest ---- */

static uint64_t next_u64(uint64_t *state)
{
    uint64_t x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    return x * 0x2545F4914F6CDD1DULL;
}

void tp_xorshift_fill(uint64_t *state, uint64_t *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = next_u64(state);
}

/* numpy's pairwise summation of a contiguous float64 run */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

static int bit_length(uint64_t v)
{
    int bits = 0;
    while (v) {
        bits++;
        v >>= 1;
    }
    return bits;
}

/* Ascending sort of m keys: insertion sort for short runs, else an LSD
 * radix sort over the low `bits` bits through tmp. */
static void sort_keys(uint64_t *a, uint64_t *tmp, int64_t m, int bits)
{
    if (m <= 32) {
        for (int64_t i = 1; i < m; i++) {
            uint64_t v = a[i];
            int64_t j = i;
            for (; j > 0 && a[j - 1] > v; j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
        return;
    }
    uint64_t *src = a, *dst = tmp;
    for (int shift = 0; shift < bits; shift += 8) {
        int64_t start[257] = {0};
        for (int64_t i = 0; i < m; i++)
            start[((src[i] >> shift) & 255) + 1]++;
        if (start[((src[0] >> shift) & 255) + 1] == m)
            continue;  /* one digit value: the pass would not move a key */
        for (int b = 0; b < 256; b++)
            start[b + 1] += start[b];
        for (int64_t i = 0; i < m; i++)
            dst[start[(src[i] >> shift) & 255]++] = src[i];
        uint64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != a)
        memcpy(a, src, (size_t)m * sizeof *a);
}

typedef struct {
    const int32_t *rank;
    const double *level;
    const int32_t *n_levels;  /* distinct values of each feature */
    const int32_t *y;
    int64_t n;
    int32_t n_features, n_classes;
    int class_bits, key_bits;
} Data;

typedef struct {
    uint64_t *keys, *tmp;   /* m sort keys each */
    int32_t *count;         /* n * n_classes: per (rank - rmin, class) */
    int32_t *at_rank;       /* n: samples per rank - rmin */
    int64_t *total, *left;  /* class counts of the node and of a left side */
    double *sq;             /* squared class fractions of one side */
} Work;

typedef struct {
    int cand;               /* index in cands, -1 before any boundary */
    double gini, lo, hi;    /* its weighted Gini and the values around it */
    int32_t rank;           /* the rank of lo */
} Best;

static Data make_data(const int32_t *rank, const double *level,
                      const int32_t *n_levels, const int32_t *y, int64_t n,
                      int32_t n_features, int32_t n_classes)
{
    Data d = {rank, level, n_levels, y, n, n_features, n_classes, 0, 0};
    d.class_bits = bit_length((uint64_t)n_classes - 1);
    d.key_bits = d.class_bits + bit_length((uint64_t)n - 1);
    return d;
}

/* buffers for nodes of up to m of the n samples; the count tables start
 * zeroed and every search leaves them so */
static int work_alloc(Work *w, int64_t m, int64_t n, int32_t n_classes)
{
    w->keys = malloc((size_t)m * sizeof *w->keys + 1);
    w->tmp = malloc((size_t)m * sizeof *w->tmp + 1);
    w->count = calloc((size_t)n * (size_t)n_classes, sizeof *w->count);
    w->at_rank = calloc((size_t)n, sizeof *w->at_rank);
    w->total = malloc((size_t)n_classes * sizeof *w->total);
    w->left = malloc((size_t)n_classes * sizeof *w->left);
    w->sq = malloc((size_t)n_classes * sizeof *w->sq);
    return w->keys && w->tmp && w->count && w->at_rank && w->total &&
           w->left && w->sq;
}

static void work_free(Work *w)
{
    free(w->keys);
    free(w->tmp);
    free(w->count);
    free(w->at_rank);
    free(w->total);
    free(w->left);
    free(w->sq);
}

/* 1 - sum of squared class fractions; counts are total - left when
 * `total` is given, else left */
static double gini(const int64_t *left, const int64_t *total, double size,
                   int32_t n_classes, double *sq)
{
    for (int32_t c = 0; c < n_classes; c++) {
        double q = (double)(total ? total[c] - left[c] : left[c]) / size;
        sq[c] = q * q;
    }
    return 1.0 - pairwise_sum(sq, n_classes);
}

/* Scores candidate c's boundary between ranks r and r_next, with nl of the
 * node's m samples, class counts w->left, at or below rank r; it becomes
 * the best when its weighted Gini is strictly below the best so far. */
static void score(const Data *d, Work *w, int64_t nl_count, int64_t m,
                  int c, const double *level, uint64_t r, uint64_t r_next,
                  Best *best)
{
    const double size = (double)m, nl = (double)nl_count, nr = size - nl;
    double g_left = gini(w->left, NULL, nl, d->n_classes, w->sq);
    double g_right = gini(w->left, w->total, nr, d->n_classes, w->sq);
    double weighted = (nl * g_left + nr * g_right) / size;
    if (best->cand < 0 || weighted < best->gini) {
        best->cand = c;
        best->gini = weighted;
        best->lo = level[r];
        best->hi = level[r_next];
        best->rank = (int32_t)r;
    }
}

/* ranks are counted, in O(m + span), on nodes of more than DENSE_MIN
 * samples whose ranks span at most DENSE_SPAN ranks per sample, and sorted
 * on all others */
#define DENSE_MIN 16
#define DENSE_SPAN 4

/* Best Gini split of the node holding samples[0, m), whose class counts are
 * in w->total.  A candidate with one value on the whole training set is
 * skipped before its gather.  Each other candidate's boundaries between
 * consecutive distinct ranks are scored in ascending rank order, counted or
 * sorted; the first minimum of the weighted Gini in (candidate in draw
 * order, rank) order wins.  Returns the winner's index in cands, or -1 when
 * every candidate is constant on the node.  The threshold is the midpoint
 * of the two values around the split, or the lower value when the midpoint
 * rounds or overflows out of [lower, upper); *at is the lower value's rank.
 * So a node sample's value is at or below the threshold exactly when its
 * rank is at or below *at: no sample of the node ranks strictly between the
 * two values. */
static int best_split(const Data *d, const int32_t *samples, int64_t m,
                      const int32_t *cands, int32_t k, Work *w, double *thr,
                      int32_t *at)
{
    const int cb = d->class_bits;
    const uint64_t class_mask = ((uint64_t)1 << cb) - 1;
    const int32_t n_classes = d->n_classes;
    Best best = {-1, 0.0, 0.0, 0.0, 0};
    for (int32_t c = 0; c < k; c++) {
        if (d->n_levels[cands[c]] < 2)
            continue;  /* constant on the whole set: no boundary anywhere */
        const int32_t *rank = d->rank + (int64_t)cands[c] * d->n;
        const double *level = d->level + (int64_t)cands[c] * d->n;
        uint64_t kmin = UINT64_MAX, kmax = 0;
        for (int64_t i = 0; i < m; i++) {
            const uint64_t key = (uint64_t)rank[samples[i]] << cb
                                 | (uint64_t)d->y[samples[i]];
            w->keys[i] = key;
            kmin = key < kmin ? key : kmin;
            kmax = key > kmax ? key : kmax;
        }
        const uint64_t rmin = kmin >> cb, rmax = kmax >> cb;
        if (rmin >= rmax)
            continue;  /* constant on the node (or no samples): no boundary */
        memset(w->left, 0, (size_t)n_classes * sizeof *w->left);
        const uint64_t span = rmax - rmin + 1;
        if (m > DENSE_MIN && span <= DENSE_SPAN * (uint64_t)m) {
            for (int64_t i = 0; i < m; i++) {
                const uint64_t r = (w->keys[i] >> cb) - rmin;
                w->count[r * (uint64_t)n_classes + (w->keys[i] & class_mask)]++;
                w->at_rank[r]++;
            }
            int64_t nl = 0;
            uint64_t prev = 0;
            for (uint64_t r = 0; r < span; r++) {
                if (!w->at_rank[r])
                    continue;
                if (nl)
                    score(d, w, nl, m, c, level, rmin + prev, rmin + r, &best);
                int32_t *row = w->count + r * (uint64_t)n_classes;
                for (int32_t j = 0; j < n_classes; j++) {
                    w->left[j] += row[j];
                    row[j] = 0;
                }
                nl += w->at_rank[r];
                w->at_rank[r] = 0;
                prev = r;
            }
            continue;
        }
        sort_keys(w->keys, w->tmp, m, d->key_bits);
        for (int64_t p = 0; p + 1 < m; p++) {
            w->left[w->keys[p] & class_mask]++;
            uint64_t r = w->keys[p] >> cb, r_next = w->keys[p + 1] >> cb;
            if (r != r_next)
                score(d, w, p + 1, m, c, level, r, r_next, &best);
        }
    }
    if (best.cand >= 0) {
        double mid = (best.lo + best.hi) / 2.0;
        *thr = best.lo <= mid && mid < best.hi ? mid : best.lo;
        *at = best.rank;
    }
    return best.cand;
}

static void count_classes(const Data *d, const int32_t *samples, int64_t m,
                          int64_t *total)
{
    memset(total, 0, (size_t)d->n_classes * sizeof *total);
    for (int64_t i = 0; i < m; i++)
        total[d->y[samples[i]]]++;
}

/* The search of the node holding samples[0, m), repeats allowed.  Returns
 * best_split's result, TP_BAD_INDEX for a sample outside [0, n) or
 * TP_NO_MEMORY. */
int32_t tp_best_split(const int32_t *rank, const double *level,
                      const int32_t *n_levels, const int32_t *y, int64_t n,
                      int32_t n_features, int32_t n_classes,
                      const int32_t *samples, int64_t m,
                      const int32_t *cands, int32_t k, double *thr)
{
    for (int64_t i = 0; i < m; i++)
        if (samples[i] < 0 || samples[i] >= n)
            return TP_BAD_INDEX;
    Data d = make_data(rank, level, n_levels, y, n, n_features, n_classes);
    Work w;
    int32_t best = TP_NO_MEMORY, at;
    if (work_alloc(&w, m, n, n_classes)) {
        count_classes(&d, samples, m, w.total);
        best = best_split(&d, samples, m, cands, k, &w, thr, &at);
    }
    work_free(&w);
    return best;
}

typedef struct {
    int32_t node;
    int64_t start, end;  /* the node's run of the sample array */
} Pending;

typedef struct {
    int32_t *feature, *left, *right;
    double *threshold, *probs;
    int32_t n_classes;
    int64_t count, cap;
} Nodes;

/* appends a leaf with a zero probability row; returns its id, or -1 when the
 * arrays are full */
static int32_t new_node(Nodes *t)
{
    if (t->count == t->cap)
        return -1;
    int64_t id = t->count++;
    t->feature[id] = t->left[id] = t->right[id] = -1;
    t->threshold[id] = 0.0;
    memset(t->probs + id * t->n_classes, 0,
           (size_t)t->n_classes * sizeof *t->probs);
    return (int32_t)id;
}

static int64_t grow(const Data *d, int32_t mtry, uint64_t *state, Nodes *t,
                    Work *w, int32_t *samples, int32_t *pool, Pending *stack)
{
    const int64_t n = d->n;
    for (int64_t j = 0; j < n; j++)
        samples[j] = (int32_t)(next_u64(state) % (uint64_t)n);
    int64_t depth = 0;
    stack[depth++] = (Pending){new_node(t), 0, n};
    while (depth > 0) {
        Pending node = stack[--depth];
        int32_t *s = samples + node.start;
        int64_t m = node.end - node.start;
        count_classes(d, s, m, w->total);
        int32_t present = 0;
        for (int32_t c = 0; c < d->n_classes; c++)
            present += w->total[c] > 0;
        int32_t best = -1, at = 0;
        double thr = 0.0;
        if (m > 1 && present > 1) {
            for (int32_t f = 0; f < d->n_features; f++)
                pool[f] = f;
            for (int32_t i = 0; i < mtry; i++) {
                uint64_t left = (uint64_t)(d->n_features - i);
                int32_t j = i + (int32_t)(next_u64(state) % left);
                int32_t swap = pool[i];
                pool[i] = pool[j];
                pool[j] = swap;
            }
            best = best_split(d, s, m, pool, mtry, w, &thr, &at);
        }
        if (best < 0) {
            double *row = t->probs + (int64_t)node.node * d->n_classes;
            for (int32_t c = 0; c < d->n_classes; c++)
                row[c] = (double)w->total[c] / (double)m;
            continue;
        }
        const int32_t *rank = d->rank + (int64_t)pool[best] * n;
        int64_t lo = 0, hi = m;
        while (lo < hi) {  /* samples at or below thr to the front */
            if (rank[s[lo]] <= at) {
                lo++;
            } else {
                int32_t swap = s[lo];
                s[lo] = s[--hi];
                s[hi] = swap;
            }
        }
        int32_t left_id = new_node(t), right_id = new_node(t);
        if (right_id < 0)
            return TP_CAPACITY;
        t->feature[node.node] = pool[best];
        t->threshold[node.node] = thr;
        t->left[node.node] = left_id;
        t->right[node.node] = right_id;
        stack[depth++] = (Pending){right_id, node.start + lo, node.end};
        stack[depth++] = (Pending){left_id, node.start, node.start + lo};
    }
    return t->count;
}

/* Grows one tree on n >= 1 samples with the generator state *state
 * (advanced in place) and mtry candidates per split node, into node arrays
 * of capacity cap (2n - 1 suffices: every split leaves samples on both
 * sides).  n_levels[f] is the number of distinct values of feature f.
 * Returns the node count, TP_CAPACITY or TP_NO_MEMORY. */
int64_t tp_grow_tree(const int32_t *rank, const double *level,
                     const int32_t *n_levels, const int32_t *y, int64_t n,
                     int32_t n_features, int32_t n_classes, int32_t mtry,
                     uint64_t *state,
                     int32_t *feature, double *threshold, int32_t *left,
                     int32_t *right, double *probs, int64_t cap)
{
    Data d = make_data(rank, level, n_levels, y, n, n_features, n_classes);
    Nodes t = {feature, left, right, threshold, probs, n_classes, 0, cap};
    Work w;
    int32_t *samples = malloc((size_t)n * sizeof *samples);
    int32_t *pool = malloc((size_t)n_features * sizeof *pool);
    Pending *stack = malloc((size_t)n * sizeof *stack);
    int64_t result = TP_NO_MEMORY;
    if (work_alloc(&w, n, n, n_classes) && samples && pool && stack)
        result = cap < 1 ? TP_CAPACITY
                         : grow(&d, mtry, state, &t, &w, samples, pool, stack);
    work_free(&w);
    free(samples);
    free(pool);
    free(stack);
    return result;
}

static double magnitude(double v)
{
    return v < 0.0 ? -v : v;
}

/* 1 when tree t of a forest is well formed: at least one node, every
 * probability finite, and every split node (feature >= 0) with a feature
 * below n_features and both child ids above its own and inside the tree.
 * Its leaves' largest probability minus their smallest goes to *spread,
 * their largest magnitude to *mag. */
static int check_tree(int64_t size, int32_t n_features, int32_t n_classes,
                      const int32_t *feature, const int32_t *left,
                      const int32_t *right, const double *probs,
                      double *spread, double *mag)
{
    double lo = INFINITY, hi = -INFINITY, big = 0.0;
    for (int64_t node = 0; node < size; node++) {
        const double *p = probs + node * n_classes;
        for (int32_t c = 0; c < n_classes; c++)
            if (!isfinite(p[c]))
                return 0;
        if (feature[node] >= 0) {
            if (feature[node] >= n_features || left[node] <= node ||
                left[node] >= size || right[node] <= node ||
                right[node] >= size)
                return 0;
            continue;
        }
        for (int32_t c = 0; c < n_classes; c++) {
            lo = p[c] < lo ? p[c] : lo;
            hi = p[c] > hi ? p[c] : hi;
            big = magnitude(p[c]) > big ? magnitude(p[c]) : big;
        }
    }
    *spread = hi > lo ? hi - lo : 0.0;
    *mag = big;
    return size > 0;
}

/* Row r's votes are settled after tree t, with R trees left, when the
 * leader l (its first largest vote) leads every other class c by
 *
 *     v[l] - v[c] > D + (R + 4) * 2^-50 * 2 (V + S),
 *
 * where D and S sum, over the remaining trees, the spread (largest minus
 * smallest leaf probability) and the largest leaf magnitude, and V is the
 * row's largest vote magnitude.  In exact arithmetic the remaining trees
 * change v[l] - v[c] by at least -D.  The rest covers rounding, with
 * u = 2^-53: the 2R remaining float additions of v[l] and v[c] err by at
 * most R u (V + S) each (recursive summation), the computed v[l] - v[c] by
 * u 2V, the computed suffix sums D and S by (R + 1) u 2S, and this test's
 * own addition by u 2S; together under 2 (R + 2) u 2 (V + S), less than a
 * quarter of the allowance, which leaves room for the higher-order terms.
 * So a settled row's full float sums keep l strictly ahead, and its label
 * is the one the full sum gives.  A margin at or below the bound never
 * settles, and non-finite bounds never do. */
static int settled(const double *v, int32_t n_classes, double spread_left,
                   double mag_left, int32_t trees_left)
{
    int32_t lead = 0;
    double big = magnitude(v[0]);
    for (int32_t c = 1; c < n_classes; c++) {
        lead = v[c] > v[lead] ? c : lead;
        big = magnitude(v[c]) > big ? magnitude(v[c]) : big;
    }
    double slack = (trees_left + 4.0) * 0x1p-50 * (2.0 * (big + mag_left));
    double bound = spread_left + slack;
    for (int32_t c = 0; c < n_classes; c++)
        if (c != lead && !(v[lead] - v[c] > bound))
            return 0;
    return 1;
}

/* votes[r * n_classes + c] += the class-c probability of the leaf that row r
 * reaches, tree after tree, until the row's votes are settled (see
 * settled); summed[r] is the number of trees added, a prefix of the
 * forest.  Node ids of tree t run from offset[t] to offset[t + 1].  Every
 * tree is checked (check_tree) before any row is read.  Returns 0, t + 1
 * for the first malformed tree t, or TP_NO_MEMORY. */
int32_t tp_forest_votes(const double *x, int64_t rows, int32_t n_features,
                        int32_t n_classes, int32_t n_trees,
                        const int64_t *offset, const int32_t *feature,
                        const double *threshold, const int32_t *left,
                        const int32_t *right, const double *probs,
                        double *votes, int32_t *summed)
{
    double *spread = malloc(2 * ((size_t)n_trees + 1) * sizeof *spread);
    int64_t *active = malloc((size_t)rows * sizeof *active + 1);
    if (!spread || !active) {
        free(spread);
        free(active);
        return TP_NO_MEMORY;
    }
    /* spread and mag become suffix sums */
    double *mag = spread + n_trees + 1;
    spread[n_trees] = mag[n_trees] = 0.0;
    for (int32_t t = 0; t < n_trees; t++) {
        const int64_t base = offset[t];
        if (!check_tree(offset[t + 1] - base, n_features, n_classes,
                        feature + base, left + base, right + base,
                        probs + base * n_classes, spread + t, mag + t)) {
            free(spread);
            free(active);
            return t + 1;
        }
    }
    for (int32_t t = n_trees - 1; t >= 0; t--) {
        spread[t] += spread[t + 1];
        mag[t] += mag[t + 1];
    }
    int64_t n_active = rows;
    for (int64_t r = 0; r < rows; r++) {
        active[r] = r;
        summed[r] = n_trees;
    }
    for (int32_t t = 0; t < n_trees; t++) {
        const int64_t base = offset[t];
        const int32_t *feat = feature + base, *lt = left + base,
                      *rt = right + base;
        const double *thr = threshold + base;
        for (int64_t a = 0; a < n_active; a++) {
            const double *row = x + active[a] * n_features;
            int64_t node = 0;
            while (feat[node] >= 0)
                node = row[feat[node]] <= thr[node] ? lt[node] : rt[node];
            const double *p = probs + (base + node) * n_classes;
            double *v = votes + active[a] * n_classes;
            for (int32_t c = 0; c < n_classes; c++)
                v[c] += p[c];
        }
        /* the lead of a row over any class is at most the spread of the
         * trees summed so far, spread[0] - spread[t + 1] up to rounding,
         * so no row settles while that is below the spread left; a check
         * skipped only means more trees are summed */
        if (t + 1 == n_trees || n_classes < 2 ||
            spread[0] - spread[t + 1] < spread[t + 1])
            continue;
        int64_t kept = 0;
        for (int64_t a = 0; a < n_active; a++) {
            if (settled(votes + active[a] * n_classes, n_classes,
                        spread[t + 1], mag[t + 1], n_trees - 1 - t))
                summed[active[a]] = t + 1;
            else
                active[kept++] = active[a];
        }
        n_active = kept;
    }
    free(spread);
    free(active);
    return 0;
}
