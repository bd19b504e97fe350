/* feclab's decoders on the packed syndromes and the bits of a layout's
 * words (see kernel.py and pc.py): the syndromes of a state's bits, the
 * marks of words of an LLR grid, the plain and the marking pass, and the
 * two schedules that run them, a product block's iterations (`block`) and
 * a staircase window's (`window`); and what a trial does before them, but
 * for its draws: the systematic encoding of a layout's words (`encode`),
 * a block's 2-PAM channel (`send_2pam`) and its interleaved 4-PAM
 * modulation (`modulate_pam`) and demapping (`pam_sides` and `pam_llr`
 * around numpy's exp and log for the exact LLR, `pam_maxlog`).
 *
 * Word i of group g has its position p at bit base[p] + i * stride[p]
 * (the rows of g in the layout's tables); the crossing word through that
 * bit sits in syndrome slot cross[p] and holds the bit at its position
 * shift[p] + i. The tables have a row group for every w syndrome slots;
 * the passes decode the first `groups` of them. A pass decodes the words
 * of one group with a nonzero syndrome, in ascending order. A word's
 * pattern toggles its bits, XORs their flip syndromes into the crossing
 * words' slots and zeroes its own slot, so every syndrome always equals
 * that of the bits. As no word of a group crosses another, that is
 * decoding them all at once; a failure leaves its word as it is. Each
 * pass adds w to bdd_calls. A pass given a group, or an axis of the
 * marks, that the state does not hold returns -1 and changes nothing.
 */
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t *syn;              /* packed syndrome of every slot */
    uint8_t *bits;             /* the bit array the layout indexes */
    const int64_t *base, *stride, *cross, *shift;  /* (slots / w, n) */
    const int64_t *flip;       /* packed syndrome of each position, n entries */
    const int64_t *flip8;      /* (n / 8, 256): entry b of chunk c XORs the flip
                                  syndromes of positions 8c + k, k a set bit of b */
    const int64_t *par, *par8; /* encode: the parity pattern of each position below
                                  k rounded up to 8, 0 from k on, and its tables */
    const int16_t *epos;       /* BDD of every syndrome: 2 positions, -1 unused */
    const int64_t *cand;       /* marks: (axes, w, ncand) flip candidates, then
                                  -1 (or any value outside 0..n-1) */
    const uint8_t *hrb;        /* marks: (axes, w, n) HRB flags */
    int64_t groups;            /* the groups a pass decodes */
    int64_t slots;             /* syndrome slots, w per row group of the tables */
    int64_t w, n, axes, ncand, attempts, d0, k;  /* k: message positions */
    /* DecodeStats, summed over the passes */
    int64_t bdd_calls, miscorrections, retries, accepted;
} state;

/* Whether an integer's low byte comes first in memory, as the 8-byte loads
 * of `xor_patterns` take it. */
static int little_endian(void)
{
    const uint16_t one = 1;
    uint8_t first;
    memcpy(&first, &one, 1);
    return first;
}

/* The low bits of the 8 bytes at a, as bits 0..7 of a byte (little endian):
 * the product places byte k's low bit at bit 56 + k, with no carries. */
static inline int64_t gather8(const uint8_t *a)
{
    uint64_t x;
    memcpy(&x, a, sizeof x);
    return (int64_t)(((x & 0x0101010101010101u) * 0x0102040810204080u) >> 56);
}

/* XOR into acc[i], for words i < words, the patterns of word i's set
 * positions (a byte's low bit) below `positions`, a multiple of 8:
 * position p of word i is bits[base[p] + i * stride[p]], one[p] its
 * pattern and entry b of chunk c of table (positions / 8, 256) the XOR of
 * the patterns of positions 8c + k, k a set bit of b. Positions go 8 at a
 * time, one table entry per word, when they lie in 8 consecutive bytes of
 * each word ("along"), or when each lies in consecutive bytes of
 * consecutive words ("across"), which 8 loads then gather for 8 words at
 * once, both on a little-endian host; else one at a time. */
static void xor_patterns(const uint8_t *bits, const int64_t *base, const int64_t *stride,
                         const int64_t *one, const int64_t *table, int64_t positions,
                         int64_t words, int64_t *acc)
{
    const int64_t little = little_endian();
    for (int64_t p = 0; p < positions; p += 8) {
        int64_t along = little, across = little && words % 8 == 0;
        for (int64_t k = 0; (along || across) && k < 8; k++) {
            along &= base[p + k] == base[p] + k && stride[p + k] == stride[p];
            across &= stride[p + k] == 1;
        }
        const int64_t *t = table + p / 8 * 256;
        if (along) {
            const uint8_t *at = bits + base[p];
            for (int64_t i = 0; i < words; i++)
                acc[i] ^= t[gather8(at + i * stride[p])];
        } else if (across) {
            for (int64_t i = 0; i < words; i += 8) {
                uint64_t y = 0;
                for (int64_t k = 0; k < 8; k++) {
                    uint64_t x;
                    memcpy(&x, bits + base[p + k] + i, sizeof x);
                    y |= (x & 0x0101010101010101u) << k;
                }
                for (int64_t r = 0; r < 8; r++)
                    acc[i + r] ^= t[(y >> 8 * r) & 255];
            }
        } else {
            for (int64_t q = p; q < p + 8; q++) {
                const int64_t f = one[q], at = base[q], step = stride[q];
                for (int64_t i = 0; i < words; i++)
                    acc[i] ^= f & -(int64_t)(bits[at + i * step] & 1);
            }
        }
    }
}

/* Fill every slot's syndrome from the bits: word i of row group g XORs
 * the flip syndromes of its set bits into slot g * w + i. */
int64_t syndromes(state *s)
{
    const int64_t w = s->w, n = s->n;
    memset(s->syn, 0, (size_t)s->slots * sizeof *s->syn);
    for (int64_t g = 0; g < s->slots / w; g++)
        xor_patterns(s->bits, s->base + g * n, s->stride + g * n, s->flip, s->flip8, n, w,
                     s->syn + g * w);
    return 0;
}

/* the most words of a group */
#define MAX_WORDS 256

/* Systematic encoding of the words of the first `groups` groups, group by
 * group: positions k..n-1 of each word get bits 0..n-k-1 of the XOR of
 * the parity patterns of its message bits, positions 0..k-1 (a byte's low
 * bit). The pattern tables cover k rounded up to 8 positions, with
 * pattern 0 from k on, so a chunk that a word's parity shares reads as
 * its message bits alone. A later group may read what an earlier one
 * wrote: a product block's columns read its rows' parity. Returns -1,
 * writing nothing, for more groups than the tables hold, groups of more
 * than MAX_WORDS words, or a code whose parity does not fit the word or
 * an int64. */
int64_t encode(state *s, int64_t groups)
{
    const int64_t w = s->w, n = s->n, k = s->k, top = (k + 7) / 8 * 8;
    int64_t acc[MAX_WORDS];
    if (w < 1 || w > MAX_WORDS || groups < 0 || groups > s->slots / w || k < 0 || top > n
        || n - k > 64)
        return -1;
    for (int64_t g = 0; g < groups; g++) {
        const int64_t *base = s->base + g * n, *stride = s->stride + g * n;
        memset(acc, 0, (size_t)w * sizeof *acc);
        xor_patterns(s->bits, base, stride, s->par, s->par8, top, w, acc);
        for (int64_t q = k; q < n; q++)
            for (int64_t i = 0; i < w; i++)
                s->bits[base[q] + i * stride[q]] = (uint8_t)(acc[i] >> (q - k) & 1);
    }
    return 0;
}

/* 2-PAM over AWGN, in place: bit j is sent as x = 1 - 2 bits[j], received
 * as y = s x + z[j], and z[j] becomes its LLR ((y + s)^2 - (y - s)^2) / 2
 * (positive favours bit 0) and hard[j] its hard decision, llr < 0. Each
 * operation rounds once, in the order that modem.py's numpy passes take
 * (the kernel is built with -ffp-contract=off, so no multiply and add
 * fuse), so the bytes are theirs, signs of zero included. */
int64_t send_2pam(const uint8_t *bits, double *z, uint8_t *hard, int64_t size, double s)
{
    for (int64_t j = 0; j < size; j++) {
        const double x = 1.0 - 2.0 * bits[j], y = s * x + z[j];
        const double d1 = y + s, d0 = y - s, llr = (d1 * d1 - d0 * d0) * 0.5;
        z[j] = llr;
        hard[j] = llr < 0;
    }
    return 0;
}

/* Whether every one of the size entries of perm lies in [0, size). */
static int in_range(const int64_t *perm, int64_t size)
{
    int64_t out = 0;
    for (int64_t j = 0; j < size; j++)
        out |= (uint64_t)perm[j] >= (uint64_t)size;
    return !out;
}

/* 4-PAM through a bit interleaver: symbol i carries bits perm[2i] and
 * perm[2i + 1] (a byte's low bit), MSB first, and x[i] gets the level of
 * that label, level[label]. Returns -1, writing nothing, for an odd size
 * or an index of perm outside [0, size). */
int64_t modulate_pam(const uint8_t *bits, const int64_t *perm, const double *level, double *x,
                     int64_t size)
{
    if (size % 2 || !in_range(perm, size))
        return -1;
    for (int64_t i = 0; i < size / 2; i++)
        x[i] = level[(bits[perm[2 * i]] & 1) << 1 | (bits[perm[2 * i + 1]] & 1)];
    return 0;
}

/* The larger and the smaller of a and b, each its own comparison, which
 * the compiler turns into one max or min instruction, not a branch. */
static inline double hi(double a, double b) { return a > b ? a : b; }
static inline double lo(double a, double b) { return a < b ? a : b; }

/* The squared distance of y to a scaled level sl, times scale, rounded as
 * modem.demap_llr rounds it: -0.5 for the exact LLR's terms, 1.0 (exact)
 * for the max-log one's. */
static inline double term(double y, double sl, double scale)
{
    const double d = y - sl;
    return d * d * scale;
}

/* The 8 levels of `pairs` scaled by s, as numpy scales each: the two
 * levels of each (bit, side) p = 2k + v of a 4-PAM label, those whose
 * label has bit k (MSB first) equal to v, in ascending order. */
static void scale_pairs(const double *pairs, double s, double *sl)
{
    for (int q = 0; q < 8; q++)
        sl[q] = s * pairs[q];
}

/* The hard decisions of the size LLRs of grid, llr < 0. */
static void hard_decisions(const double *grid, uint8_t *hard, int64_t size)
{
    for (int64_t j = 0; j < size; j++)
        hard[j] = grid[j] < 0;
}

/* The exact 4-PAM LLRs' first pass over nsym symbols y at amplitude s:
 * for (bit, side) p of each symbol, whose terms a, b are
 * (y - s level)^2 * -0.5 for its two levels pairs[2p] and pairs[2p + 1],
 * m = max(a, b) in row p of ws, (8, nsym), and min(a, b) - m in row
 * 4 + p. Every term is -0.0 or below, so the max and the min are numpy's,
 * bit for bit, for every finite y. numpy then turns rows 4..7 into
 * log(exp(.) + 1) (`kernel.demap_pam`), which `pam_llr` reads. */
int64_t pam_sides(const double *y, const double *pairs, double *ws, int64_t nsym, double s)
{
    double sl[8];
    scale_pairs(pairs, s, sl);
    for (int64_t i = 0; i < nsym; i++)
        for (int p = 0; p < 4; p++) {
            const double a = term(y[i], sl[2 * p], -0.5), b = term(y[i], sl[2 * p + 1], -0.5);
            const double m = hi(a, b);
            ws[p * nsym + i] = m;
            ws[(4 + p) * nsym + i] = lo(a, b) - m;
        }
    return 0;
}

/* The exact 4-PAM LLRs from `pam_sides`' ws, whose rows 4..7 now hold the
 * log-sum-exp remainders r: bit k of symbol i, bit j = 2i + k of the
 * symbols, has the LLR (m[2k] + r[2k]) - (m[2k + 1] + r[2k + 1]) of column
 * i of the rows, which goes through the interleaver to grid[perm[j]]; then
 * hard gets the grid's hard decisions. Returns -1, writing nothing, for an
 * index of perm outside [0, 2 nsym). */
int64_t pam_llr(const double *ws, const int64_t *perm, double *grid, uint8_t *hard,
                int64_t nsym)
{
    if (!in_range(perm, 2 * nsym))
        return -1;
    for (int64_t i = 0; i < nsym; i++)
        for (int k = 0; k < 2; k++) {
            const double *at = ws + 2 * k * nsym + i;
            grid[perm[2 * i + k]] = (at[0] + at[4 * nsym]) - (at[nsym] + at[5 * nsym]);
        }
    hard_decisions(grid, hard, 2 * nsym);
    return 0;
}

/* The max-log 4-PAM LLRs of nsym symbols y at amplitude s, written as
 * `pam_llr` writes them, with their hard decisions: bit k of a symbol has
 * (min of its side 1 terms - min of its side 0 terms) / 2.0, the terms
 * its squared distances to the scaled levels and the sides' levels as in
 * `pam_sides`. Returns -1, writing nothing, for an index of perm outside
 * [0, 2 nsym). */
int64_t pam_maxlog(const double *y, const double *pairs, const int64_t *perm, double *grid,
                   uint8_t *hard, int64_t nsym, double s)
{
    double sl[8];
    if (!in_range(perm, 2 * nsym))
        return -1;
    scale_pairs(pairs, s, sl);
    for (int64_t i = 0; i < nsym; i++)
        for (int k = 0; k < 2; k++) {
            const double *l = sl + 4 * k;
            const double zero = lo(term(y[i], l[0], 1.0), term(y[i], l[1], 1.0));
            const double one = lo(term(y[i], l[2], 1.0), term(y[i], l[3], 1.0));
            grid[perm[2 * i + k]] = (one - zero) / 2.0;
        }
    hard_decisions(grid, hard, 2 * nsym);
    return 0;
}

/* the most flip candidates a word keeps */
#define MAX_CAND 8

/* The marks of `words` words from an LLR grid: position offset + j of word
 * i carries llr[i * word_stride + j * pos_stride], j < n. Row i of hrb
 * (offset + n flags) flags the positions whose |llr| exceeds delta, none
 * below offset; row i of cand (ncand entries) holds the first ncand of the
 * others by ascending |llr|, ties to the lower position, then -1. |llr|
 * is compared by its bit pattern with the sign bit cleared, which orders
 * as its value, with that of delta, which is not NaN (-0 compares as 0,
 * as it does as a value). A word keeps a stable top list of the keys at or below a
 * threshold: delta's pattern until the list is full, then just below its
 * last key, so that the rare key that enters is the only branch taken.
 * Returns -1, writing nothing, for ncand outside 0..MAX_CAND. */
int64_t marks(const double *llr, uint8_t *hrb, int64_t *cand, int64_t words, int64_t n,
              int64_t word_stride, int64_t pos_stride, int64_t offset, int64_t ncand,
              double delta)
{
    int64_t above, key[MAX_CAND], pos[MAX_CAND];
    if (ncand < 0 || ncand > MAX_CAND)
        return -1;
    if (delta == 0)
        delta = 0;
    memcpy(&above, &delta, sizeof above);
    for (int64_t i = 0; i < words; i++) {
        const double *a = llr + i * word_stride;
        uint8_t *h = hrb + i * (offset + n);
        int64_t count = 0, limit = ncand ? above : -1;
        memset(h, 0, (size_t)offset);
        h += offset;
        for (int64_t j = 0; j < n; j++) {
            int64_t v;
            memcpy(&v, a + j * pos_stride, sizeof v);
            v &= INT64_MAX;
            h[j] = v > above;
            if (v > limit)
                continue;
            /* a full list drops its last key */
            int64_t k = count < ncand ? count++ : ncand - 1;
            for (; k > 0 && key[k - 1] > v; k--) {
                key[k] = key[k - 1];
                pos[k] = pos[k - 1];
            }
            key[k] = v;
            pos[k] = j;
            if (count == ncand)
                limit = key[ncand - 1] - 1;
        }
        int64_t *c = cand + i * ncand;
        for (int64_t k = 0; k < ncand; k++)
            c[k] = k < count ? offset + pos[k] : -1;
    }
    return 0;
}

/* Toggle the k positions pos of word i of group g and keep the syndromes. */
static void apply(state *s, int64_t g, int64_t i, const int64_t *pos, int k)
{
    const int64_t at = g * s->n;
    for (int j = 0; j < k; j++) {
        const int64_t p = at + pos[j];
        s->syn[s->cross[p]] ^= s->flip[s->shift[p] + i];
        s->bits[s->base[p] + i * s->stride[p]] ^= 1;
    }
    s->syn[g * s->w + i] = 0;
}

/* Plain BDD of group g. Returns whether it flipped a bit. */
int64_t plain_pass(state *s, int64_t g)
{
    const int64_t w = s->w;
    int64_t changed = 0, pos[2];
    if (g < 0 || g >= s->groups)
        return -1;
    for (int64_t i = 0; i < w; i++) {
        const int64_t syn = s->syn[g * w + i];
        if (!syn)
            continue;
        const int16_t *e = s->epos + 2 * syn;
        if (e[0] < 0)
            continue;
        pos[0] = e[0];
        pos[1] = e[1];
        apply(s, g, i, pos, e[1] < 0 ? 1 : 2);
        changed = 1;
    }
    s->bdd_calls += w;
    return changed;
}

/* The SABM veto of toggling positions a[0..na-1] of a word with HRB flags
 * hrb and crossing slots cross, less those also in b[0..nb-1]: one of them
 * is an HRB or its crossing word lies in slots lo..hi-1 and has a zero
 * syndrome. */
static int vetoed(const state *s, const uint8_t *hrb, const int64_t *cross,
                  const int64_t *a, int na, const int64_t *b, int nb, int64_t lo, int64_t hi)
{
    for (int j = 0; j < na; j++) {
        const int64_t c = cross[a[j]];
        int both = 0;
        for (int q = 0; q < nb; q++)
            both |= b[q] == a[j];
        if (!both && (hrb[a[j]] || (c >= lo && c < hi && !s->syn[c])))
            return 1;
    }
    return 0;
}

/* SABM on group g, whose word i is word i of the marks' axis; the veto
 * reads crossing words in slots lo..hi-1 only. A vetoed proposal of
 * weight e retries once with the word's first d0 - e - 1 candidates
 * flipped at once, a failure retries with its candidates flipped one at
 * a time, at most `attempts` retries. A retry reads the pre-BDD word and
 * is taken if it decodes (syndrome 0 decodes to no position) and the veto
 * passes the flips and the decoded positions, less those in both: it
 * toggles both sets, so that a position in both cancels.
 * Returns whether it flipped a bit. */
int64_t sabm_pass(state *s, int64_t g, int64_t axis, int64_t lo, int64_t hi)
{
    const int64_t w = s->w, n = s->n;
    const int64_t *cross = s->cross + g * n;
    int64_t changed = 0, retries = 0, miscorrections = 0, accepted = 0;
    if (g < 0 || g >= s->groups || axis < 0 || axis >= s->axes)
        return -1;
    for (int64_t i = 0; i < w; i++) {
        const int64_t syn = s->syn[g * w + i];
        if (!syn)
            continue;
        const int64_t word = axis * w + i;
        const uint8_t *hrb = s->hrb + word * n;
        const int64_t *cand = s->cand + word * s->ncand, *flips = cand;
        int ncand = 0;
        while (ncand < s->ncand && cand[ncand] >= 0 && cand[ncand] < n)
            ncand++;
        /* BDD's positions, of the word or of an accepted retry, which
         * also toggles its nflips flips */
        int64_t pattern[2];
        int k = 0, nflips = 0, tries, size;  /* tries of `size` flips: cand[t * size ..] */
        const int16_t *e = s->epos + 2 * syn;
        if (e[0] < 0) {
            tries = ncand < s->attempts ? ncand : (int)s->attempts;
            size = 1;
        } else {
            pattern[0] = e[0];
            pattern[1] = e[1];
            k = e[1] < 0 ? 1 : 2;
            tries = 0;
            if (vetoed(s, hrb, cross, pattern, k, NULL, 0, lo, hi)) {
                miscorrections++;
                size = (int)s->d0 - k - 1;
                if (size > ncand)
                    size = ncand;
                tries = size > 0;
                k = 0;
            }
        }
        for (int t = 0; t < tries; t++) {
            flips = cand + t * size;
            retries++;
            int64_t change = syn;
            for (int j = 0; j < size; j++)
                change ^= s->flip[flips[j]];
            int ngot = 0;
            if (change) {
                const int16_t *r = s->epos + 2 * change;
                if (r[0] < 0)
                    continue;
                pattern[0] = r[0];
                pattern[1] = r[1];
                ngot = r[1] < 0 ? 1 : 2;
            }
            if (vetoed(s, hrb, cross, flips, size, pattern, ngot, lo, hi)
                || vetoed(s, hrb, cross, pattern, ngot, flips, size, lo, hi))
                continue;
            k = ngot;
            nflips = size;
            accepted++;
            break;
        }
        if (!k && !nflips)  /* dropped: a nonzero syndrome never decodes to nothing */
            continue;
        apply(s, g, i, flips, nflips);
        apply(s, g, i, pattern, k);
        changed = 1;
    }
    s->bdd_calls += w + retries;
    s->miscorrections += miscorrections;
    s->retries += retries;
    s->accepted += accepted;
    return changed;
}

/* The iterations of the block whose rows are group g and columns group
 * g + 1 (see pc.block_pass): `marking` of marking passes on axes 0 and 1,
 * whose veto reads the block's slots, then plain ones up to `iters`. A
 * phase ends at its first iteration that flips nothing, but a stalled
 * marking iteration that leaves a nonzero syndrome in the block goes on
 * to the plain ones. A row pass is a statement of its own, as C leaves the
 * order of `|`'s operands open. */
int64_t block(state *s, int64_t g, int64_t marking, int64_t iters)
{
    const int64_t lo = g * s->w, hi = lo + 2 * s->w;
    if (g < 0 || g + 1 >= s->groups || marking < 0 || (marking > 0 && s->axes < 2))
        return -1;
    for (int64_t it = 0; it < marking; it++) {
        const int64_t rows = sabm_pass(s, g, 0, lo, hi);
        if (!(rows | sabm_pass(s, g + 1, 1, lo, hi))) {
            int64_t slot = lo;
            while (slot < hi && !s->syn[slot])
                slot++;
            if (slot == hi)
                return 0;
            break;
        }
    }
    for (int64_t it = marking; it < iters; it++) {
        const int64_t rows = plain_pass(s, g);
        if (!(rows | plain_pass(s, g + 1)))
            break;
    }
    return 0;
}

/* The ell iterations of a staircase window over pairs first..newest, each
 * a plain pass over every pair but the newest, in order, and then over
 * the newest pair a marking pass on axis 0 of the marks in the first
 * `marking` iterations, whose veto reads the window's slots, or a plain
 * pass. */
int64_t window(state *s, int64_t first, int64_t newest, int64_t ell, int64_t marking)
{
    if (first < 0 || first > newest || newest >= s->groups || (marking > 0 && s->axes < 1))
        return -1;
    for (int64_t it = 0; it < ell; it++) {
        for (int64_t p = first; p < newest; p++)
            plain_pass(s, p);
        if (it < marking)
            sabm_pass(s, newest, 0, first * s->w, (newest + 1) * s->w);
        else
            plain_pass(s, newest);
    }
    return 0;
}
