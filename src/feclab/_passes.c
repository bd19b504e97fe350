/* The plain and the marking pass of feclab's decoders, on the packed
 * syndromes and the bits of a layout's words (see kernel.py and pc.py).
 *
 * Word i of group g has its position p at bit base[p] + i * stride[p]
 * (the rows of g in the layout's tables); the crossing word through that
 * bit sits in syndrome slot cross[p] and holds the bit at its position
 * shift[p] + i. A pass decodes the words of one group with a nonzero
 * syndrome, in ascending order. A word's pattern toggles its bits, XORs
 * their flip syndromes into the crossing words' slots and zeroes its own
 * slot, so every syndrome always equals that of the bits. As no word of
 * a group crosses another, that is decoding them all at once; a failure
 * leaves its word as it is. Each pass adds w to bdd_calls. A pass given
 * a group, or an axis of the marks, that the state does not hold returns
 * -1 and changes nothing.
 */
#include <stdint.h>

typedef struct {
    int64_t *syn;              /* packed syndrome of every slot */
    uint8_t *bits;             /* the bit array the layout indexes */
    const int64_t *base, *stride, *cross, *shift;  /* (groups, n) */
    const int64_t *flip;       /* packed syndrome of each position, n entries */
    const int16_t *epos;       /* BDD of every syndrome: 2 positions, -1 unused */
    const int64_t *cand;       /* marks: (axes, w, ncand) flip candidates, then
                                  -1 (or any value outside 0..n-1) */
    const uint8_t *hrb;        /* marks: (axes, w, n) HRB flags */
    int64_t groups, w, n, axes, ncand, attempts, d0;
    /* DecodeStats, summed over the passes */
    int64_t bdd_calls, miscorrections, retries, accepted;
} state;

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

/* The SABM veto of flipping positions pos[0..k-1] of a word with HRB flags
 * hrb and crossing slots cross: one of them is an HRB or its crossing word
 * lies in slots lo..hi-1 and has a zero syndrome. */
static int vetoed(const state *s, const uint8_t *hrb, const int64_t *cross,
                  const int64_t *pos, int k, int64_t lo, int64_t hi)
{
    for (int j = 0; j < k; j++) {
        const int64_t c = cross[pos[j]];
        if (hrb[pos[j]] || (c >= lo && c < hi && !s->syn[c]))
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
 * passes the flips and the decoded positions, less those in both.
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
        const int64_t *cand = s->cand + word * s->ncand;
        int ncand = 0;
        while (ncand < s->ncand && cand[ncand] >= 0 && cand[ncand] < n)
            ncand++;
        int64_t pattern[6];
        int k = 0, tries, size;  /* tries of `size` flips: cand[t * size ..] */
        const int16_t *e = s->epos + 2 * syn;
        if (e[0] < 0) {
            tries = ncand < s->attempts ? ncand : (int)s->attempts;
            size = 1;
        } else {
            pattern[0] = e[0];
            pattern[1] = e[1];
            k = e[1] < 0 ? 1 : 2;
            tries = 0;
            if (vetoed(s, hrb, cross, pattern, k, lo, hi)) {
                miscorrections++;
                size = (int)s->d0 - k - 1;
                if (size > ncand)
                    size = ncand;
                tries = size > 0;
                k = 0;
            }
        }
        for (int t = 0; t < tries; t++) {
            const int64_t *flips = cand + t * size;
            retries++;
            int64_t change = syn;
            for (int j = 0; j < size; j++)
                change ^= s->flip[flips[j]];
            int64_t got[2];
            int ngot = 0;
            if (change) {
                const int16_t *r = s->epos + 2 * change;
                if (r[0] < 0)
                    continue;
                got[0] = r[0];
                got[1] = r[1];
                ngot = r[1] < 0 ? 1 : 2;
            }
            /* the flips and the decoded positions, less those in both */
            int64_t total[6];
            int m = 0;
            for (int j = 0; j < size; j++) {
                int both = 0;
                for (int q = 0; q < ngot; q++)
                    both |= got[q] == flips[j];
                if (!both)
                    total[m++] = flips[j];
            }
            for (int q = 0; q < ngot; q++) {
                int both = 0;
                for (int j = 0; j < size; j++)
                    both |= got[q] == flips[j];
                if (!both)
                    total[m++] = got[q];
            }
            if (vetoed(s, hrb, cross, total, m, lo, hi))
                continue;
            for (int j = 0; j < m; j++)
                pattern[j] = total[j];
            k = m;
            accepted++;
            break;
        }
        if (!k)  /* dropped: a nonzero syndrome never decodes to nothing */
            continue;
        apply(s, g, i, pattern, k);
        changed = 1;
    }
    s->bdd_calls += w + retries;
    s->miscorrections += miscorrections;
    s->retries += retries;
    s->accepted += accepted;
    return changed;
}

/* iBDD of the block whose rows are group g and whose columns are group
 * g + 1: up to iters iterations of a row pass and then a column pass,
 * ending after the first that flips nothing. */
int64_t ibdd_block(state *s, int64_t g, int64_t iters)
{
    if (g < 0 || g + 1 >= s->groups)
        return -1;
    for (int64_t it = 0; it < iters; it++)
        if (!(plain_pass(s, g) | plain_pass(s, g + 1)))
            break;
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
