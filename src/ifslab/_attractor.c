/* Point raster of one level of the IFS {-1 + lz, lz, 1 + lz}, and the
   outlines of overlay circles; built, loaded and called by ifslab/_native.py.

   ifs_attractor_hits sets hit[r * W + c] = 1 for every pixel (c, r) of a
   W x H image that a node of the level falls on: the points of the numpy
   path cli._numpy_image, bit for bit.
   It walks the word tree depth first.  A node of level d is x_d = x_{d-1}
   + w_d and y_d = y_{d-1} + w'_d from x_{-1} = y_{-1} = 0, with w_d, w'_d
   the real and imaginary parts of its letter's weight at level d, read as
   (re, im) pairs from row d of the table of ifs._letter_weights (row 0 the
   letters themselves): the additions of ifs._fold in its order, so every
   node has its bits.  A leaf (level L) falls on column
   floor(((x - x0) * W) / (x1 - x0)) and row floor(((y1 - y) * H) / (y1 - y0)),
   the expressions of _point_pixels in their order, computed for x and y
   side by side in one vector of two doubles (each lane an IEEE double
   operation), and is kept when 0 <= c < W and r is a row of its band
   (below; 0 <= r < H in one band).  Unfloored, c >= 0 and c < W decide the
   same as floored (W is an integer, and so are a band's first and last
   rows), the cast of a c >= 0 truncates to floor(c), and NaN fails every
   test.

   Every node from the root down to the level three above the leaves is
   boxed: every leaf under it lies within r_d of it in x and r'_d in y, so
   its pixel lies between the pixels of the box corners, because each step
   of the pixel expressions (a rounded subtraction, product and quotient by
   positive numbers, and floor) never decreases, in x, or never increases,
   in y.  The subtree is skipped when that pixel range lies off the image,
   when it is one pixel (painted here: the subtree has at least one leaf),
   or when it spans at most 8 x 8 pixels that are all hit inside the image
   (each row of those read as one 8-byte word, masked to the row, where
   8 bytes from the row's first pixel lie within the band; byte by byte
   elsewhere).  The mask is a set, so what is skipped cannot change it.
   Nodes of the last two levels above the leaves are not boxed: a box costs
   about what painting the 4 or 9 leaves under such a node does.

   The box bound, for x (y alike, with the imaginary parts).  Let
   u = DBL_EPSILON / 2, m_j the largest |w_j| over the letters, and
   B = m_0 + ... + m_L.  A rounded sum is a + b times (1 + e) with
   |e| <= u (a sum in the subnormal range is exact), so by induction
   |x_j| <= (1 + u)^(j+1) B, and a leaf below x_d differs from
   x_d + w_{d+1} + ... + w_L by at most u (|x_{d+1}| + ... + |x_L|)
   <= (L - d) u (1 + u)^(L+1) B.  The kernel takes
       r_d = (m_{d+1} + ... + m_L) + s,   s = 4 (L + 2) DBL_EPSILON B + DBL_MIN,
   summed from the deepest level up.  The rounding of those sums and of the
   corners x_d -/+ r_d costs at most (L + 5) u B more, and
   (L - d) (1 + u)^(L+1) + L + 5 <= 2 L + 6 < 8 (L + 2) for L <= 63, so
   the corners enclose every leaf; DBL_MIN covers the product in s should it
   underflow.  The slack is kept per coordinate: at a real lambda every y is
   exactly 0 with B = 0, and a slack shared with x would let each box
   straddle the row boundary that the real axis falls on.

   The image is walked in n = bands bands of rows, band b the rows
   [floor(b H / n), floor((b + 1) H / n)), each by a walk of its own: the
   calling thread walks band 0 and one pthread_create'd thread each other
   band; should pthread_create fail, the calling thread walks that band
   after its own.
   Each band runs the walk above with its rows in place of the image's: a
   leaf is kept only on a row of the band, and a box clips its rows to the
   band, so a subtree whose rows lie beside the band is skipped as off the
   image and the all-hit test reads only the box's rows in the band.  Every
   leaf keeps its bits and its pixel, and the band of its row paints it, so
   the image is the same for every n; the counts are not.  No byte is
   shared between threads: a band writes and reads only the pixels of its
   own rows, as the 8-byte word of a box row is read only where it ends by
   the band's last pixel (byte by byte elsewhere), so no word reaches into
   the next band.  Each band's walk state lies in cache lines of its own.

   Returns 0, with counts[0] the leaves walked and counts[1] the subtrees
   skipped, summed over the bands, or -1 for more than 3 letters, a level
   outside 0..63 or a band count outside 1..16.

   ifs_circle_hits sets img[r * W + c] = value for every sample t of the
   circle around each of n centres (cr, ci), given as (re, im) pairs:
   column floor((cr + dx[t] - x0) * sx) and row floor((y1 - (ci + dy[t])) * sy),
   the expressions of cli._draw_circles in their order, kept when
   0 <= c < W and 0 <= r < H as above.  The offsets dx, dy (radius times
   cos t and sin t) and the scales sx = W / (x1 - x0), sy = H / (y1 - y0)
   come from numpy, so no sample depends on the C library's cos and sin. */

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>

#define MAX_LEVELS 64
#define MAX_BANDS 16
#define BOX_PIXELS 8

/* the first n = 1..8 bytes, in memory order, of a word loaded with memcpy */
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define ROW_MASK(n) (~UINT64_C(0) << 8 * (8 - (n)))
#else
#define ROW_MASK(n) (~UINT64_C(0) >> 8 * (8 - (n)))
#endif
#define ONES (~UINT64_C(0) / 255)  /* 0x01 in every byte */
#define HIGHS (ONES << 7)          /* 0x80 in every byte */

typedef double pair __attribute__((vector_size(16)));

struct walk {
    pair step[MAX_LEVELS][3];  /* (w_d, w'_d) of each letter */
    pair half[MAX_LEVELS];     /* (r_d, -r'_d): box corners p -/+ half */
    int k, levels, last;
    pair size, extent;         /* (W, H) and (x1 - x0, y1 - y0) */
    double x0, y1;
    double top, bottom;        /* the band's rows [top, bottom) */
    long width, row_lo, row_hi, end;  /* end = row_hi * W */
    unsigned char *hit;
    int64_t leaves, skipped;
} __attribute__((aligned(128)));  /* no cache line shared between bands */

/* (column, row) of the point q = (x, y), not yet floored */
static inline pair pixel(const struct walk *s, pair q)
{
    pair a = {q[0], s->y1}, b = {s->x0, q[1]};
    return (a - b) * s->size / s->extent;
}

/* floor(c) clipped to lo-1..hi for integers lo >= 0 and hi: the same tests
   against lo..hi-1 */
static inline long clip(double c, double lo, double hi)
{
    return c < lo ? (long)lo - 1 : c >= hi ? (long)hi : (long)c;
}

/* 1 when no leaf below the node p of level d can hit a new pixel of the band */
static int known(struct walk *s, pair p, int d)
{
    pair lo = pixel(s, p - s->half[d]), hi = pixel(s, p + s->half[d]);
    long c0 = clip(lo[0], 0, s->size[0]), c1 = clip(hi[0], 0, s->size[0]);
    long r0 = clip(lo[1], s->top, s->bottom), r1 = clip(hi[1], s->top, s->bottom);
    if (c1 < 0 || c0 >= s->width || r1 < s->row_lo || r0 >= s->row_hi)
        return 1;
    if (c0 == c1 && r0 == r1) {
        s->hit[r0 * s->width + c0] = 1;
        return 1;
    }
    if (c1 - c0 >= BOX_PIXELS || r1 - r0 >= BOX_PIXELS)
        return 0;
    c0 = c0 < 0 ? 0 : c0;
    c1 = c1 < s->width ? c1 : s->width - 1;
    for (long r = r0 < s->row_lo ? s->row_lo : r0; r <= r1 && r < s->row_hi; r++) {
        long i = r * s->width + c0;
        if (i + 8 <= s->end) {
            uint64_t v;
            memcpy(&v, s->hit + i, 8);
            v |= ~ROW_MASK(c1 - c0 + 1);  /* bytes past the row count as hit */
            if ((v - ONES) & ~v & HIGHS)    /* some byte of v is 0 */
                return 0;
        } else {
            for (long c = c0; c <= c1; c++)
                if (!s->hit[r * s->width + c])
                    return 0;
        }
    }
    return 1;
}

static void grow(struct walk *s, int d, pair p)
{
    if (d == s->levels) {
        for (int a = 0; a < s->k; a++) {
            pair q = p + s->step[d][a];
            pair c = pixel(s, q);
            if (c[0] >= 0 && c[0] < s->size[0] && c[1] >= s->top && c[1] < s->bottom)
                s->hit[(long)c[1] * s->width + (long)c[0]] = 1;
        }
        s->leaves += s->k;
        return;
    }
    for (int a = 0; a < s->k; a++) {
        pair q = p + s->step[d][a];
        if (d <= s->last && known(s, q, d))
            s->skipped++;
        else
            grow(s, d + 1, q);
    }
}

static void *walk_band(void *band)
{
    grow(band, 0, (pair){0.0, 0.0});
    return NULL;
}

int ifs_attractor_hits(const double (*w)[2], int k, int levels,
                       double x0, double y1, double dx, double dy,
                       long width, long height, unsigned char *hit, int64_t *counts, int bands)
{
    if (k < 1 || k > 3 || levels < 0 || levels >= MAX_LEVELS || bands < 1 || bands > MAX_BANDS)
        return -1;
    struct walk s[bands];  /* the tables in each band's own cache lines */
    pthread_t thread[bands];
    int started[bands];
    pair m[MAX_LEVELS], b = {0, 0}, t = {0, 0};
    s[0] = (struct walk){.k = k, .levels = levels, .last = levels - 3,
                         .size = {(double)width, (double)height}, .extent = {dx, dy},
                         .x0 = x0, .y1 = y1, .width = width, .hit = hit};
    for (int d = 0; d <= levels; d++) {
        m[d] = (pair){0, 0};
        for (int a = 0; a < k; a++) {
            s[0].step[d][a] = (pair){w[d * k + a][0], w[d * k + a][1]};
            m[d][0] = fmax(m[d][0], fabs(w[d * k + a][0]));
            m[d][1] = fmax(m[d][1], fabs(w[d * k + a][1]));
        }
        b += m[d];
    }
    pair slack = 4.0 * (levels + 2) * DBL_EPSILON * b + DBL_MIN;
    for (int d = levels; d >= 0; d--) {
        s[0].half[d] = (t + slack) * (pair){1, -1};
        t += m[d];
    }
    for (int i = bands - 1; i >= 0; i--) {
        long lo = i * height / bands, hi = (i + 1) * height / bands;
        s[i] = s[0];
        s[i].top = (double)lo, s[i].bottom = (double)hi;
        s[i].row_lo = lo, s[i].row_hi = hi, s[i].end = hi * width;
        started[i] = i > 0 && pthread_create(&thread[i], NULL, walk_band, &s[i]) == 0;
    }
    counts[0] = counts[1] = 0;
    for (int i = 0; i < bands; i++) {
        if (started[i])
            pthread_join(thread[i], NULL);
        else
            walk_band(&s[i]);
        counts[0] += s[i].leaves;
        counts[1] += s[i].skipped;
    }
    return 0;
}

void ifs_circle_hits(const double (*centres)[2], long n, const double *dx, const double *dy,
                     long steps, double x0, double y1, double sx, double sy,
                     long width, long height, unsigned char *img, unsigned char value)
{
    for (long i = 0; i < n; i++)
        for (long t = 0; t < steps; t++) {
            double c = (centres[i][0] + dx[t] - x0) * sx;
            double r = (y1 - (centres[i][1] + dy[t])) * sy;
            if (c >= 0 && c < width && r >= 0 && r < height)
                img[(long)r * width + (long)c] = value;
        }
}
